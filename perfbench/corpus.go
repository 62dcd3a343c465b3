package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/graphio"
	"polyise/internal/ise"
	"polyise/internal/workload"
)

// corpusSeed pins the corpus content. Corpora of different seeds differ
// in total enumeration work by about ±20 % (seeds 1–5 gave 4.0–5.7 k
// cuts/s on the same box), which would swamp any code change, so --seed
// drives the queue order instead.
const corpusSeed = 1

// corpusPassSeconds is the nominal length of one corpus pass at two
// workers; it converts --seconds into a fixed pass count.
const corpusPassSeconds = 4.0

// corpusSetupReps is how many times the corpus set-up runs.
const corpusSetupReps = 9

type corpusOp struct {
	s       float64
	stats   enum.Stats
	cuts    cutSet
	sel     cutSet
	verilog uint64
	vErr    error
	chosen  int
	vbytes  int
}

func runCorpus(cfg config, tr *tracer) (*result, error) {
	res := newResult()
	nproc := runtime.GOMAXPROCS(0)
	spec := workload.DefaultCorpusSpec()
	spec.Large = 0
	spec.TreeDepths = nil

	tr.setOn(cfg.trace)
	var blocks []*dfg.Graph
	err := measureSetup(res, corpusSetupReps, func(op int32) error {
		sp := tr.begin("workload.Corpus", -1, op)
		src := workload.Corpus(corpusSeed, spec)
		tr.end(sp)
		blocks = blocks[:0]
		var buf bytes.Buffer
		for _, b := range src {
			buf.Reset()
			if err := graphio.Write(&buf, b.G); err != nil {
				return err
			}
			g, err := readGraph(tr, buf.Bytes(), op)
			if err != nil {
				return fmt.Errorf("%s: %w", b.Name, err)
			}
			blocks = append(blocks, g)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tr.setOn(false)

	opt := enum.DefaultOptions()
	opt.MaxInputs, opt.MaxOutputs, opt.Parallelism = 2, 1, 1
	model := ise.DefaultModel()
	sopt := ise.DefaultSelectOptions()

	// identify is one op: enumerate a block, select instructions, emit
	// Verilog for each. Digests are taken after the op's clock stops.
	identify := func(b int, op int32, keep *ise.Selection) corpusOp {
		g := blocks[b]
		var rec corpusOp
		var buf bytes.Buffer
		h := fnv.New64a()
		start := time.Now()
		root := tr.begin("op", -1, op)
		sp := tr.begin("enum.CollectAll", root, op)
		cuts, st := enum.CollectAll(g, opt)
		tr.end(sp)
		sp = tr.begin("ise.Select", root, op)
		sel := ise.Select(g, model, cuts, sopt)
		tr.end(sp)
		for i, e := range sel.Chosen {
			buf.Reset()
			sp = tr.begin("ise.WriteVerilog", root, op)
			err := ise.WriteVerilog(&buf, g, e.Cut, fmt.Sprintf("ise_%d", i))
			tr.end(sp)
			if err != nil {
				rec.vErr = err
				break
			}
			rec.vbytes += buf.Len()
			h.Write(buf.Bytes())
		}
		tr.end(root)
		rec.s = time.Since(start).Seconds()
		rec.stats = st
		rec.cuts = digestCuts(cuts)
		rec.sel = selectionDigest(sel)
		rec.verilog = h.Sum64()
		rec.chosen = len(sel.Chosen)
		if keep != nil {
			*keep = sel
		}
		return rec
	}

	// The queue starts with the small blocks (n < 80, about 1 % of the
	// work) in seeded order, then the rest largest first. Each pass starts
	// on a collected heap, so the small blocks, which set op_p50_ms, never
	// share a core with a large block's garbage collection; whether a
	// collection fell among them moved op_p50_ms by a quarter between
	// runs. The large blocks go largest first so that two workers finish
	// a pass together: in a random order, a 0.7 s block drawn last left
	// one worker idle for up to a tenth of the pass.
	order := make([]int, len(blocks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return blocks[order[i]].N() > blocks[order[j]].N() })
	cut := sort.Search(len(order), func(i int) bool { return blocks[order[i]].N() < 80 })
	small := append([]int(nil), order[cut:]...)
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(small), func(i, j int) { small[i], small[j] = small[j], small[i] })
	order = append(small, order[:cut]...)

	// pass runs the given blocks on workers block workers that take them
	// from one queue in order. It returns the wall time and the per-block
	// records, indexed like queue.
	var opCount atomic.Int32
	pass := func(queue []int, workers int, keep []ise.Selection) (float64, []corpusOp) {
		recs := make([]corpusOp, len(queue))
		var next atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(queue) {
						return
					}
					var k *ise.Selection
					if keep != nil {
						k = &keep[queue[i]]
					}
					recs[i] = identify(queue[i], opCount.Add(1), k)
				}
			}()
		}
		wg.Wait()
		return time.Since(start).Seconds(), recs
	}

	nPasses := max(2, int(math.Round(float64(cfg.seconds)/corpusPassSeconds)))
	firstSel := make([]ise.Selection, len(blocks))
	var allRecs [][]corpusOp // per pass, indexed by position in order
	var plain, traced, plainRates []float64
	var plainOps []float64
	var tracedStats []enum.Stats
	var serial float64
	chosen, vbytes := 0, 0
	var mem memAcc
	// Pass -1 is a whole untimed warm-up pass: the first pass on a fresh
	// heap was up to 30 % slower than the rest, and its ops filled the
	// top of op_p99_ms. Its outputs are checked like every other pass's. A
	// traced run alternates untraced and traced passes, with the serial
	// reference pass (one block worker) in the middle.
	for p := -1; p < nPasses; p++ {
		on := cfg.trace && p%2 == 1
		var keep []ise.Selection
		if p == -1 {
			keep = firstSel
		}
		var wall float64
		var recs []corpusOp
		runtime.GC()
		traceUnit(tr, &mem, on, func() { wall, recs = pass(order, nproc, keep) })
		allRecs = append(allRecs, recs)
		if p == -1 {
			continue
		}
		cuts := 0
		for _, r := range recs {
			cuts += r.cuts.n
			if on {
				tracedStats = append(tracedStats, r.stats)
				chosen += r.chosen
				vbytes += r.vbytes
			} else {
				plainOps = append(plainOps, r.s)
			}
		}
		if on {
			traced = append(traced, wall)
		} else {
			plain = append(plain, wall)
			plainRates = append(plainRates, float64(cuts)/wall)
		}
		if cfg.trace && p == nPasses/2 {
			serial, _ = pass(order, 1, nil)
		}
	}
	res.metrics["peak_rss_mb"] = peakRSSMB()
	res.metrics["cuts_per_s"] = median(plainRates)
	res.metrics["ops_per_s"] = float64(len(blocks)) / median(plain)
	res.metrics["op_p50_ms"] = ms(median(plainOps))
	res.metrics["op_p99_ms"] = ms(quantile(plainOps, 0.99))
	res.note("timed: %d passes of %d blocks at %d block workers (+1 warm-up pass), pass walls %.3g s; rates are medians over passes; op percentiles over %d block ops",
		len(plain), len(blocks), nproc, plain, len(plainOps))

	// Output checks, outside the timed phase: every op's cut set and
	// selection against the baseline-derived reference, every op's Verilog
	// against the first pass, and each block's chosen instructions through
	// the interpreter.
	tr.setOn(cfg.trace)
	blockBad := make([]bool, len(blocks))
	refCuts := make([]cutSet, len(blocks))
	refSel := make([]cutSet, len(blocks))
	totalRef, totalChosen := 0, 0
	mismatches := 0
	for b, g := range blocks {
		ref := newReference(g, opt, cfg.corruptReference)
		refCuts[b] = ref.digest
		refSel[b] = selectionDigest(ise.Select(g, model, ref.cuts, sopt))
		totalRef += ref.digest.n
		sp := tr.begin("semoracle.check", -1, int32(b))
		problems := checkSelection(g, firstSel[b], opt, cfg.seed+int64(b)<<20)
		tr.end(sp)
		totalChosen += len(firstSel[b].Chosen)
		if len(problems) > 0 {
			mismatches += len(problems)
			blockBad[b] = true
			res.problem("block %d: %d interpreter/invariant problems, first: %s", b, len(problems), problems[0])
		}
	}
	verilog := make(map[int]uint64)
	for p, recs := range allRecs {
		for i, r := range recs {
			b := order[i]
			res.attempted++
			if p == 0 {
				verilog[b] = r.verilog
			}
			switch {
			case r.stats.StopReason != enum.StopNone || r.stats.Err != nil:
				res.problem("pass %d block %d stopped early: %v %v", p, b, r.stats.StopReason, r.stats.Err)
			case r.vErr != nil:
				res.problem("pass %d block %d: WriteVerilog: %v", p, b, r.vErr)
			case r.cuts != refCuts[b]:
				res.problem("pass %d block %d: cut set %v, reference %v", p, b, r.cuts, refCuts[b])
			case r.sel != refSel[b]:
				res.problem("pass %d block %d: selection %v, reference %v", p, b, r.sel, refSel[b])
			case r.verilog != verilog[b]:
				res.problem("pass %d block %d: Verilog differs from the first pass", p, b)
			case !blockBad[b]:
				continue
			}
			res.failed++
		}
	}
	tr.setOn(false)
	res.note("output checks: %d block ops against baseline.CollectPruned (%d cuts per pass) and ise.Select over the baseline cuts; %d chosen instructions through semoracle.CheckCut and semoracle.Invariants",
		res.attempted, totalRef, totalChosen)

	if cfg.trace {
		mem.record(res, len(tracedStats))
		recordEnumStats(res, tracedStats)
		res.metrics["enum.busy_s"] = tr.self("enum.CollectAll")
		res.metrics["enum.direct_ms_p50"] = ms(median(tr.durations("enum.CollectAll")))
		res.metrics["parallel.speedup"] = serial / median(plain)
		res.metrics["parallel.efficiency"] = serial / median(plain) / float64(nproc)
		res.metrics["ise.select_s"] = tr.total("ise.Select")
		res.metrics["ise.verilog_s"] = tr.total("ise.WriteVerilog")
		res.metrics["ise.chosen"] = ratio(float64(chosen), float64(len(tracedStats)))
		res.metrics["ise.verilog_bytes"] = ratio(float64(vbytes), float64(chosen))
		res.metrics["semoracle.check_s"] = tr.total("semoracle.check")
		res.metrics["semoracle.mismatches"] = float64(mismatches)
		recordGraphio(res, tr)
		recordOverhead(res, plain, traced, float64(len(blocks)))
	}
	return res, nil
}
