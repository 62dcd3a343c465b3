package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"polyise/internal/bitset"
	"polyise/internal/checkpoint"
	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/graphio"
	"polyise/internal/ise"
	"polyise/internal/session"
	"polyise/internal/workload"
)

// Shape of service-mix. The block contents are pinned (poolSeed); --seed
// only orders each client's requests, so every seed does the same work.
const (
	poolSeed   = 2007
	poolMinN   = 10 // pool block i has poolMinN+i vertices: n = 10..59
	poolBlocks = 50
	// A deck is one client's unit of work: every pool block enumerated
	// enumPerBlock times, the blocks with i%5 of 1 or 3 selected once,
	// and freshPerDeck new blocks submitted submitsPerFresh times each
	// (the first submission is a cache miss, the others hits). That is
	// 150 enumerate, 20 select and 30 submit requests: 75/10/15 %.
	enumPerBlock    = 3
	freshPerDeck    = 10
	submitsPerFresh = 3
	// deckSeconds is the nominal length of one deck on a 2-vCPU box; it
	// converts --seconds into a fixed deck count.
	deckSeconds = 1.1
	// serviceWarmup enumerate requests per client run untimed first.
	serviceWarmup    = 25
	serviceSetupReps = 9
	serviceNin       = 4
	serviceNout      = 2
)

type reqKind uint8

const (
	kindEnumerate reqKind = iota
	kindSelect
	kindSubmit
)

func (k reqKind) String() string { return [...]string{"enumerate", "select", "submit"}[k] }

// request indexes a pool block (enumerate, select) or a fresh block
// (submit).
type request struct {
	kind  reqKind
	block int
}

// reply is what a client observed for one request.
type reply struct {
	request
	s      float64
	status int
	err    error
	// enumerate: the streamed cut set, body size and terminal record.
	cuts  cutSet
	bytes int
	done  bool
	valid int
	// select: the decoded reply and its digest.
	sel       *selectReply
	selDigest cutSet
	// submit: the id the service assigned.
	id string
}

type selectReply struct {
	Chosen []struct {
		Nodes   []int   `json:"nodes"`
		Inputs  []int   `json:"inputs"`
		Outputs []int   `json:"outputs"`
		Saving  int     `json:"saving"`
		Area    float64 `json:"area"`
	} `json:"chosen"`
	CyclesBefore int     `json:"cycles_before"`
	CyclesAfter  int     `json:"cycles_after"`
	Area         float64 `json:"area"`
}

// selection rebuilds an ise.Selection from the reply so the semantic
// oracle can check what the service actually returned.
func (r *selectReply) selection(n int) ise.Selection {
	sel := ise.Selection{BlockCyclesBefore: r.CyclesBefore, BlockCyclesAfter: r.CyclesAfter, TotalArea: r.Area}
	for _, c := range r.Chosen {
		sel.Chosen = append(sel.Chosen, ise.Estimate{
			Cut:    enum.Cut{Nodes: bitset.FromMembers(n, c.Nodes...), Inputs: c.Inputs, Outputs: c.Outputs},
			Saving: c.Saving,
			Area:   c.Area,
		})
	}
	return sel
}

// server is one in-process polyised: a session.Service behind its HTTP
// handler on a loopback listener.
type server struct {
	svc  *session.Service
	srv  *http.Server
	base string
	wg   sync.WaitGroup
}

func startServer(nproc int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// The budget holds every graph of a run with room to spare, so no
	// graph is evicted and no request can 404.
	svc := session.NewService(session.Config{
		MaxConcurrent:      nproc,
		MemoryBudget:       256 << 20,
		DedupBudgetDefault: 4 << 20,
	})
	s := &server{svc: svc, srv: &http.Server{Handler: session.NewHandler(svc, session.HandlerConfig{})}, base: "http://" + ln.Addr().String()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// stop shuts the HTTP server and the service down and waits for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := errors.Join(s.srv.Shutdown(ctx), s.svc.Shutdown(ctx))
	s.wg.Wait()
	return err
}

type client struct {
	hc   *http.Client
	base string
	// nodes is scratch for parsing one NDJSON row.
	nodes []int
}

// newClient returns a client holding one keep-alive connection.
func newClient(base string) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		base: base,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// serviceInputs is everything set-up generates and submits.
type serviceInputs struct {
	pool      []*dfg.Graph
	poolIDs   []string
	freshText [][]byte
	freshIDs  []string
	srv       *server
}

func runService(cfg config, tr *tracer) (*result, error) {
	res := newResult()
	nproc := runtime.GOMAXPROCS(0)
	nDecks := max(2, int(math.Round(float64(cfg.seconds)/deckSeconds)))
	const clients = 2

	tr.setOn(cfg.trace)
	var in *serviceInputs
	err := measureSetup(res, serviceSetupReps, func(op int32) error {
		if in != nil {
			if err := in.srv.stop(); err != nil {
				return err
			}
		}
		var err error
		in, err = setupService(tr, op, nproc, clients*nDecks*freshPerDeck)
		return err
	})
	if err != nil {
		if in != nil {
			in.srv.stop()
		}
		return nil, err
	}
	tr.setOn(false)
	defer in.srv.stop()

	cls := make([]*client, clients)
	for i := range cls {
		cls[i] = newClient(in.srv.base)
		defer cls[i].close()
	}
	// Each client's sequence: a fixed multiset of requests per deck, in a
	// seeded order.
	seqs := make([][]request, clients)
	for c := range seqs {
		r := rand.New(rand.NewSource(cfg.seed*1000003 + int64(c)))
		for d := 0; d < nDecks; d++ {
			seqs[c] = append(seqs[c], deck(r, (c*nDecks+d)*freshPerDeck)...)
		}
	}

	var opCount atomic.Int32
	deckLen := len(seqs[0]) / nDecks
	// runClients sends every client its requests, one at a time, all
	// clients concurrently. It returns each client's replies and the time
	// each client took for each run of unit requests.
	runClients := func(reqs [][]request, unit int) ([][]reply, []float64) {
		out := make([][]reply, clients)
		times := make([][]float64, clients)
		var wg sync.WaitGroup
		for c := range cls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				for i, q := range reqs[c] {
					out[c] = append(out[c], cls[c].do(tr, opCount.Add(1), q, in))
					if (i+1)%unit == 0 {
						times[c] = append(times[c], time.Since(start).Seconds())
						start = time.Now()
					}
				}
			}()
		}
		wg.Wait()
		var all []float64
		for _, t := range times {
			all = append(all, t...)
		}
		return out, all
	}
	// phase runs decks [lo, hi) of every client's sequence; every deck is
	// the same work, so rates are medians over deck times.
	phase := func(lo, hi int) ([][]reply, []float64) {
		reqs := make([][]request, clients)
		for c := range reqs {
			reqs[c] = seqs[c][lo*deckLen : hi*deckLen]
		}
		return runClients(reqs, deckLen)
	}

	// Warm-up: untimed enumerate requests, not part of any sequence.
	warm := make([][]request, clients)
	for c := range warm {
		for i := 0; i < serviceWarmup; i++ {
			warm[c] = append(warm[c], request{kindEnumerate, (i*7 + c*13) % poolBlocks})
		}
	}
	checked, _ := runClients(warm, serviceWarmup)

	// A traced run runs one deck per phase, alternating untraced and
	// traced, so that drift in the box's speed falls on both sides; an
	// untraced run is one phase.
	units := [][2]int{{0, nDecks}}
	if cfg.trace {
		units = units[:0]
		for d := 0; d < nDecks; d++ {
			units = append(units, [2]int{d, d + 1})
		}
	}
	var stop chan struct{}
	var peak atomic.Int64
	var poller sync.WaitGroup
	if cfg.trace {
		stop = make(chan struct{})
		poller.Add(1)
		go func() {
			defer poller.Done()
			t := time.NewTicker(2 * time.Millisecond)
			defer t.Stop()
			for {
				if u := in.srv.svc.Stats().BudgetUsed; u > peak.Load() {
					peak.Store(u)
				}
				select {
				case <-stop:
					return
				case <-t.C:
				}
			}
		}()
	}
	var plain, traced []reply
	var plainDecks, tracedDecks []float64
	var mem memAcc
	var counters svcCounters
	for i, u := range units {
		on := cfg.trace && i%2 == 1
		before := in.srv.svc.Stats()
		var replies [][]reply
		var decks []float64
		traceUnit(tr, &mem, on, func() { replies, decks = phase(u[0], u[1]) })
		checked = append(checked, replies...)
		if on {
			counters.add(before, in.srv.svc.Stats())
			tracedDecks = append(tracedDecks, decks...)
			for _, rs := range replies {
				traced = append(traced, rs...)
			}
		} else {
			plainDecks = append(plainDecks, decks...)
			for _, rs := range replies {
				plain = append(plain, rs...)
			}
		}
	}
	if cfg.trace {
		close(stop)
		poller.Wait()
	}
	res.metrics["peak_rss_mb"] = peakRSSMB()
	lat := make([]float64, len(plain))
	cuts := 0
	for i, r := range plain {
		lat[i] = r.s
		cuts += r.cuts.n
	}
	deckS := median(plainDecks)
	res.metrics["ops_per_s"] = float64(clients*deckLen) / deckS
	res.metrics["cuts_per_s"] = float64(clients*cuts/len(plainDecks)) / deckS
	res.metrics["op_p50_ms"] = ms(median(lat))
	res.metrics["op_p99_ms"] = ms(quantile(lat, 0.99))
	res.note("timed: %d requests from %d closed-loop clients (%d decks of %d each, +%d warm-up requests per client); rates from the median deck time (%.3g s) over %d decks; op_p99_ms from %d samples",
		len(plain), clients, len(plainDecks)/clients, deckLen, serviceWarmup, deckS, len(plainDecks), len(lat))

	if cfg.trace {
		mem.record(res, len(traced))
		recordSession(res, tr, counters, peak.Load(), traced)
		res.metrics["trace.ops_per_s"] = float64(clients*deckLen) / median(tracedDecks)
		res.metrics["trace.overhead"] = res.metrics["ops_per_s"] / res.metrics["trace.ops_per_s"]

		replayed, err := replay(res, tr, in, cls[0], nproc)
		if err != nil {
			return nil, err
		}
		checked = append(checked, replayed)
	}

	// Output checks, outside the timed phase.
	tr.setOn(cfg.trace)
	checkReplies(res, tr, cfg, in, checked)
	tr.setOn(false)
	if cfg.trace {
		recordGraphio(res, tr)
		res.metrics["semoracle.check_s"] = tr.total("semoracle.check")
	}
	return res, nil
}

// deck returns one client's shuffled deck; fresh blocks are numbered from
// freshBase.
func deck(r *rand.Rand, freshBase int) []request {
	var q []request
	for b := 0; b < poolBlocks; b++ {
		for k := 0; k < enumPerBlock; k++ {
			q = append(q, request{kindEnumerate, b})
		}
		if isSelectBlock(b) {
			q = append(q, request{kindSelect, b})
		}
	}
	for f := 0; f < freshPerDeck; f++ {
		for k := 0; k < submitsPerFresh; k++ {
			q = append(q, request{kindSubmit, freshBase + f})
		}
	}
	r.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] })
	return q
}

// isSelectBlock reports whether pool block b also receives select
// requests: 20 of the 50 blocks, spread over the size range.
func isSelectBlock(b int) bool { return b%5 == 1 || b%5 == 3 }

// setupService generates the pool and the fresh blocks, parses them back,
// starts the server and submits the pool.
func setupService(tr *tracer, op int32, nproc, fresh int) (*serviceInputs, error) {
	in := &serviceInputs{}
	prof := workload.DefaultProfile()
	r := rand.New(rand.NewSource(poolSeed))
	var poolText [][]byte
	seen := map[string]bool{}
	gen := func(g *dfg.Graph) ([]byte, *dfg.Graph, string, error) {
		var buf bytes.Buffer
		if err := graphio.Write(&buf, g); err != nil {
			return nil, nil, "", err
		}
		parsed, err := readGraph(tr, buf.Bytes(), op)
		if err != nil {
			return nil, nil, "", err
		}
		id := session.GraphID(checkpoint.GraphDigest(parsed)).String()
		if seen[id] {
			return nil, nil, "", fmt.Errorf("generated block %s twice", id)
		}
		seen[id] = true
		return buf.Bytes(), parsed, id, nil
	}
	sp := tr.begin("workload.MiBenchLike", -1, op)
	for i := 0; i < poolBlocks; i++ {
		text, g, id, err := gen(workload.MiBenchLike(r, poolMinN+i, prof))
		if err != nil {
			tr.end(sp)
			return nil, err
		}
		poolText = append(poolText, text)
		in.pool = append(in.pool, g)
		in.poolIDs = append(in.poolIDs, id)
	}
	for i := 0; i < fresh; i++ {
		text, _, id, err := gen(workload.MiBenchLike(r, poolMinN+i%poolBlocks, prof))
		if err != nil {
			tr.end(sp)
			return nil, err
		}
		in.freshText = append(in.freshText, text)
		in.freshIDs = append(in.freshIDs, id)
	}
	tr.end(sp)

	srv, err := startServer(nproc)
	if err != nil {
		return nil, err
	}
	in.srv = srv
	c := newClient(srv.base)
	defer c.close()
	for i, text := range poolText {
		rp := c.submit(text)
		if rp.err != nil || rp.status != http.StatusCreated || rp.id != in.poolIDs[i] {
			return in, fmt.Errorf("submitting pool block %d: status %d id %s: %v", i, rp.status, rp.id, rp.err)
		}
	}
	return in, nil
}

// do sends one request and reads the whole reply.
func (c *client) do(tr *tracer, op int32, q request, in *serviceInputs) reply {
	var rp reply
	start := time.Now()
	sp := tr.begin("http."+q.kind.String(), -1, op)
	switch q.kind {
	case kindEnumerate:
		rp = c.enumerate(tr, sp, op, in.poolIDs[q.block])
	case kindSelect:
		rp = c.selectISE(in.poolIDs[q.block])
	case kindSubmit:
		rp = c.submit(in.freshText[q.block])
	}
	tr.end(sp)
	rp.request = q
	rp.s = time.Since(start).Seconds()
	return rp
}

func (c *client) post(path string, body []byte) (*http.Response, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	return c.hc.Post(c.base+path, "text/plain", r)
}

func (c *client) enumerate(tr *tracer, parent, op int32, id string) reply {
	var rp reply
	ttfb := tr.begin("http.ttfb", parent, op)
	resp, err := c.post("/v1/graphs/"+id+"/enumerate?nin="+strconv.Itoa(serviceNin)+"&nout="+strconv.Itoa(serviceNout), nil)
	if err != nil {
		tr.end(ttfb)
		rp.err = err
		return rp
	}
	defer resp.Body.Close()
	rp.status = resp.StatusCode
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for first := true; ; first = false {
		line, err := br.ReadSlice('\n')
		if first {
			tr.end(ttfb)
		}
		rp.bytes += len(line)
		if len(line) > 0 {
			if bytes.HasPrefix(line, []byte(`{"done"`)) {
				var end struct {
					Done  bool `json:"done"`
					Stats struct {
						Valid int `json:"valid"`
					} `json:"stats"`
				}
				if jerr := json.Unmarshal(line, &end); jerr != nil {
					rp.err = jerr
					return rp
				}
				rp.done, rp.valid = end.Done, end.Stats.Valid
			} else if nodes, perr := parseNodes(line, c.nodes[:0]); perr != nil {
				rp.err = perr
				return rp
			} else {
				c.nodes = nodes
				rp.cuts.addMembers(nodes)
			}
		}
		if err == io.EOF {
			return rp
		}
		if err != nil {
			rp.err = err
			return rp
		}
	}
}

// parseNodes extracts the "nodes" array of one NDJSON cut row.
func parseNodes(line []byte, dst []int) ([]int, error) {
	key := []byte(`"nodes":[`)
	i := bytes.Index(line, key)
	if i < 0 {
		return nil, fmt.Errorf("row without nodes: %.80s", line)
	}
	v, have := 0, false
	for _, ch := range line[i+len(key):] {
		switch {
		case ch >= '0' && ch <= '9':
			v, have = v*10+int(ch-'0'), true
		case ch == ',' || ch == ']':
			if have {
				dst = append(dst, v)
			}
			v, have = 0, false
			if ch == ']' {
				return dst, nil
			}
		default:
			return nil, fmt.Errorf("bad nodes array: %.80s", line)
		}
	}
	return nil, fmt.Errorf("unterminated nodes array: %.80s", line)
}

func (c *client) selectISE(id string) reply {
	var rp reply
	resp, err := c.post("/v1/graphs/"+id+"/select?nin="+strconv.Itoa(serviceNin)+"&nout="+strconv.Itoa(serviceNout), nil)
	if err != nil {
		rp.err = err
		return rp
	}
	defer resp.Body.Close()
	rp.status = resp.StatusCode
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		rp.err = err
		return rp
	}
	rp.sel = &selectReply{}
	if rp.err = json.Unmarshal(body, rp.sel); rp.err != nil {
		return rp
	}
	for _, c := range rp.sel.Chosen {
		rp.selDigest.addMembers(c.Nodes)
		rp.selDigest.a += uint64(c.Saving)
	}
	return rp
}

func (c *client) submit(text []byte) reply {
	var rp reply
	resp, err := c.post("/v1/graphs", text)
	if err != nil {
		rp.err = err
		return rp
	}
	defer resp.Body.Close()
	rp.status = resp.StatusCode
	var out struct {
		ID string `json:"id"`
	}
	rp.err = json.NewDecoder(resp.Body).Decode(&out)
	rp.id = out.ID
	return rp
}

// svcCounters sums Service.Stats deltas over the traced decks.
type svcCounters struct{ admitted, shed, hits, misses, evictions uint64 }

func (c *svcCounters) add(before, after session.Stats) {
	c.admitted += after.Admitted - before.Admitted
	c.shed += after.Shed - before.Shed
	c.hits += after.Cache.Hits - before.Cache.Hits
	c.misses += after.Cache.Misses - before.Cache.Misses
	c.evictions += after.Cache.Evictions - before.Cache.Evictions
}

// recordSession stores the session.* metrics of the traced decks: service
// counters, the polled budget peak, and client-side HTTP timings.
func recordSession(res *result, tr *tracer, c svcCounters, peak int64, traced []reply) {
	res.metrics["session.admitted"] = float64(c.admitted)
	res.metrics["session.shed"] = float64(c.shed)
	res.metrics["session.cache_hits"] = float64(c.hits)
	res.metrics["session.cache_misses"] = float64(c.misses)
	res.metrics["session.evictions"] = float64(c.evictions)
	res.metrics["session.budget_peak_mb"] = float64(peak) / (1 << 20)
	ttfb := tr.durations("http.ttfb")
	res.metrics["session.http.ttfb_ms_p50"] = ms(median(ttfb))
	res.metrics["session.http.ttfb_ms_p99"] = ms(quantile(ttfb, 0.99))
	res.metrics["session.http.request_ms_p50"] = ms(median(tr.durations("http.enumerate")))
	bytes, cuts := 0, 0
	for _, r := range traced {
		if r.kind == kindEnumerate {
			bytes += r.bytes
			cuts += r.cuts.n
		}
	}
	res.metrics["session.http.ndjson_bytes_per_cut"] = ratio(float64(bytes), float64(cuts))
	res.note("traced phase: %d requests, %d enumerate ttfb samples", len(traced), len(ttfb))
}

// replay sends one enumerate request per pool block, and one select per
// select block, once more and one at a time: enumerate over HTTP, through
// Service.Enumerate, through enum.Enumerate with the service's options and
// through enum.Enumerate serially; select through enum.CollectAll and
// ise.Select. It stores the per-layer metrics that split a request between
// HTTP, the session layer, the search and the visitor. The set is the same
// for every seed, so its counters repeat exactly. The replies it returns
// are checked like the others.
func replay(res *result, tr *tracer, in *serviceInputs, c *client, nproc int) ([]reply, error) {
	opt := enum.DefaultOptions()
	opt.MaxInputs, opt.MaxOutputs, opt.KeepCuts = serviceNin, serviceNout, false
	serial := opt
	serial.Parallelism = 1
	var out []reply
	var httpS, sessS, enumS, serialS []float64
	var stats []enum.Stats
	model, sopt := ise.DefaultModel(), ise.DefaultSelectOptions()
	selects, chosen := 0, 0
	tr.setOn(true)
	defer tr.setOn(false)
	for b, g := range in.pool {
		op := int32(-2 - b)
		q := request{kindEnumerate, b}
		rp := c.do(tr, op, q, in)
		out = append(out, rp)
		httpS = append(httpS, rp.s)

		id, err := session.ParseGraphID(in.poolIDs[b])
		if err != nil {
			return nil, err
		}
		var d cutSet
		sp := tr.begin("session.Enumerate", -1, op)
		t := time.Now()
		st, err := in.srv.svc.Enumerate(context.Background(), session.Request{Graph: id, Options: opt}, func(cut enum.Cut) bool {
			v := tr.begin("session.visit", sp, op)
			d.addWords(cut.Nodes.Words())
			tr.end(v)
			return true
		})
		sessS = append(sessS, time.Since(t).Seconds())
		tr.end(sp)
		out = append(out, reply{request: q, status: http.StatusOK, err: err, cuts: d, done: st.StopReason == enum.StopNone, valid: st.Valid})

		d = cutSet{}
		sp = tr.begin("enum.Enumerate", -1, op)
		t = time.Now()
		st = enum.Enumerate(g, opt, func(cut enum.Cut) bool {
			v := tr.begin("visit", sp, op)
			d.addWords(cut.Nodes.Words())
			tr.end(v)
			return true
		})
		enumS = append(enumS, time.Since(t).Seconds())
		tr.end(sp)
		stats = append(stats, st)
		out = append(out, reply{request: q, status: http.StatusOK, err: st.Err, cuts: d, done: st.StopReason == enum.StopNone, valid: st.Valid})

		d = cutSet{}
		serialS = append(serialS, timed(func() {
			st = enum.Enumerate(g, serial, func(cut enum.Cut) bool { d.addWords(cut.Nodes.Words()); return true })
		}))
		out = append(out, reply{request: q, status: http.StatusOK, err: st.Err, cuts: d, done: st.StopReason == enum.StopNone, valid: st.Valid})

		if isSelectBlock(b) {
			selects++
			sp = tr.begin("enum.CollectAll", -1, op)
			cuts, _ := enum.CollectAll(g, opt)
			tr.end(sp)
			sp = tr.begin("ise.Select", -1, op)
			chosen += len(ise.Select(g, model, cuts, sopt).Chosen)
			tr.end(sp)
		}
	}
	recordEnumStats(res, stats)
	res.metrics["enum.busy_s"] = tr.self("enum.Enumerate")
	res.metrics["enum.visit_s"] = tr.total("visit")
	res.metrics["enum.direct_ms_p50"] = ms(median(enumS))
	res.metrics["session.direct_ms_p50"] = ms(median(sessS))
	res.metrics["session.http_share"] = 1 - median(sessS)/median(httpS)
	res.metrics["parallel.speedup"] = median(serialS) / median(enumS)
	res.metrics["parallel.efficiency"] = median(serialS) / median(enumS) / float64(nproc)
	res.metrics["ise.select_s"] = tr.total("ise.Select")
	res.metrics["ise.chosen"] = ratio(float64(chosen), float64(selects))
	res.note("replay: %d enumerate requests over HTTP (p50 %.3g ms), through Service.Enumerate (p50 %.3g ms), enum.Enumerate (p50 %.3g ms) and serial enum.Enumerate (p50 %.3g ms); %d selects through ise.Select",
		len(in.pool), ms(median(httpS)), ms(median(sessS)), ms(median(enumS)), ms(median(serialS)), selects)
	return out, nil
}

// checkReplies compares every reply with its reference: enumerate cut
// sets and terminal records against baseline.CollectPruned, select replies
// against ise.Select over the baseline cuts and (once per block) through
// the semantic oracle, submit ids against the content digest.
func checkReplies(res *result, tr *tracer, cfg config, in *serviceInputs, replies [][]reply) {
	opt := enum.DefaultOptions()
	opt.MaxInputs, opt.MaxOutputs = serviceNin, serviceNout
	model, sopt := ise.DefaultModel(), ise.DefaultSelectOptions()
	refCuts := make([]cutSet, poolBlocks)
	refSel := make([]*cutSet, poolBlocks)
	refs := make([]reference, poolBlocks)
	for b, g := range in.pool {
		refs[b] = newReference(g, opt, cfg.corruptReference)
		refCuts[b] = refs[b].digest
	}
	oracleBad := map[int]bool{}
	oracleDone := map[int]bool{}
	mismatches := 0
	for _, rs := range replies {
		for _, r := range rs {
			res.attempted++
			bad := ""
			switch {
			case r.err != nil:
				bad = r.err.Error()
			case r.kind == kindEnumerate && r.status != http.StatusOK:
				bad = fmt.Sprintf("status %d", r.status)
			case r.kind == kindEnumerate && (!r.done || r.valid != r.cuts.n):
				bad = fmt.Sprintf("terminal record done=%v valid=%d after %d rows", r.done, r.valid, r.cuts.n)
			case r.kind == kindEnumerate && r.cuts != refCuts[r.block]:
				bad = fmt.Sprintf("cut set %v, reference %v", r.cuts, refCuts[r.block])
			case r.kind == kindSelect && r.status != http.StatusOK:
				bad = fmt.Sprintf("status %d", r.status)
			case r.kind == kindSelect:
				if refSel[r.block] == nil {
					d := selectionDigest(ise.Select(in.pool[r.block], model, refs[r.block].cuts, sopt))
					refSel[r.block] = &d
				}
				if !oracleDone[r.block] {
					oracleDone[r.block] = true
					sp := tr.begin("semoracle.check", -1, int32(r.block))
					problems := checkSelection(in.pool[r.block], r.sel.selection(in.pool[r.block].N()), opt, cfg.seed+int64(r.block))
					tr.end(sp)
					if len(problems) > 0 {
						mismatches += len(problems)
						oracleBad[r.block] = true
						res.problem("select block %d: %d interpreter/invariant problems, first: %s", r.block, len(problems), problems[0])
					}
				}
				if r.selDigest != *refSel[r.block] {
					bad = fmt.Sprintf("selection %v, reference %v", r.selDigest, *refSel[r.block])
				} else if oracleBad[r.block] {
					bad = "selection failed the semantic oracle"
				}
			case r.kind == kindSubmit && (r.status != http.StatusCreated || r.id != in.freshIDs[r.block]):
				bad = fmt.Sprintf("status %d id %s, want %s", r.status, r.id, in.freshIDs[r.block])
			}
			if bad != "" {
				res.failed++
				res.problem("%s block %d: %s", r.kind, r.block, bad)
			}
		}
	}
	res.metrics["semoracle.mismatches"] = float64(mismatches)
	res.note("output checks: %d replies against baseline.CollectPruned over %d pool blocks; %d selections through semoracle.CheckCut and semoracle.Invariants",
		res.attempted, poolBlocks, len(oracleDone))
}
