// Command perfbench is polyise's end-to-end benchmark. One invocation runs
// one seeded, closed-loop workload in a single process, checks every
// output against references that do not use internal/enum, and prints the
// workload's metrics; the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload enum-n220 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// same workload alternates untraced units with units that record spans
// around the benchmark's calls into each module, and the metrics are the
// per-layer ones. See README.md for the glossary.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/graphio"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// traceDir receives the span dump of a traced run.
	traceDir string
	// corruptReference perturbs every reference digest; only the
	// benchmark's own test sets it, to prove that a wrong output fails the
	// run.
	corruptReference bool
}

type scenario struct {
	name string
	why  string
	run  func(cfg config, tr *tracer) (*result, error)
}

var scenarios = []scenario{
	{"enum-n220", "the search engine alone: one caller enumerates the pinned n=220 block at Nin=4/Nout=2 with nproc workers; session, graphio and ise do no work", runEnumN220},
	{"isel-corpus-2x1", "the paper's use case: nproc workers identify ISEs across 230 basic blocks at Nin=2/Nout=1; 99% of enumeration time is in blocks with n>256, which take the generic closure path", runCorpus},
	{"service-mix", "polyised callers: 2 closed-loop HTTP clients send 75% enumerate, 10% select and 15% submit requests over small blocks (n=10-59); about half of a request is HTTP and NDJSON", runService},
}

// endToEnd lists the metrics of an untraced run with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cuts_per_s", "cuts/s"},
	{"ops_per_s", "ops/s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run with their units. A layer a
// workload does not call reads 0.
var perLayer = []struct{ name, unit string }{
	{"enum.busy_s", "s"},
	{"enum.visit_s", "s"},
	{"enum.candidates", "count/op"},
	{"enum.duplicates", "count/op"},
	{"enum.invalid", "count/op"},
	{"enum.lt_runs", "count/op"},
	{"enum.outputs_tried", "count/op"},
	{"enum.seeds_pruned", "count/op"},
	{"enum.valid_per_candidate", "ratio"},
	{"enum.dup_per_candidate", "ratio"},
	{"enum.direct_ms_p50", "ms"},
	{"parallel.steals", "count/op"},
	{"parallel.speedup", "ratio"},
	{"parallel.efficiency", "ratio"},
	{"graphio.read_ms_p50", "ms"},
	{"graphio.read_calls", "count"},
	{"ise.select_s", "s"},
	{"ise.verilog_s", "s"},
	{"ise.chosen", "count/op"},
	{"ise.verilog_bytes", "B/instr"},
	{"semoracle.check_s", "s"},
	{"semoracle.mismatches", "count"},
	{"session.admitted", "count"},
	{"session.shed", "count"},
	{"session.cache_hits", "count"},
	{"session.cache_misses", "count"},
	{"session.evictions", "count"},
	{"session.budget_peak_mb", "MB"},
	{"session.http.ttfb_ms_p50", "ms"},
	{"session.http.ttfb_ms_p99", "ms"},
	{"session.http.request_ms_p50", "ms"},
	{"session.http.ndjson_bytes_per_cut", "B/cut"},
	{"session.direct_ms_p50", "ms"},
	{"session.http_share", "ratio"},
	{"runtime.mallocs_per_op", "count/op"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.ops_per_s", "ops/s"},
	{"trace.overhead", "ratio"},
}

// result is what a workload reports back to main.
type result struct {
	attempted, failed int
	// problems holds the first maxProblems check failures; nProblems
	// counts all of them.
	problems  []string
	nProblems int
	metrics   map[string]float64
	notes     []string
}

const maxProblems = 20

func newResult() *result { return &result{metrics: map[string]float64{}} }

// problem records an output check that failed.
func (r *result) problem(format string, args ...any) {
	r.nProblems++
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, false))
}

// run parses args, runs the workload and prints its report to stdout. It
// returns the process exit code: 0 only when every output was correct.
func run(args []string, stdout, stderr io.Writer, corruptReference bool) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: enum-n220, isel-corpus-2x1 or service-mix")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 20, "nominal length of the timed phase in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	fs.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "directory for the span dump of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	cfg.corruptReference = corruptReference
	if traceFlag != 0 && traceFlag != 1 || cfg.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}
	var w *scenario
	for i := range scenarios {
		if scenarios[i].name == cfg.workload {
			w = &scenarios[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}

	fmt.Fprintf(stdout, "workload %s: %s\n", w.name, w.why)
	fmt.Fprintf(stdout, "seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		cfg.seed, cfg.seconds, traceFlag, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	tr := newTracer()
	res, err := w.run(cfg, tr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if cfg.trace {
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
		if err := tr.dump(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), path)
	}
	rep, err := buildReport(res, cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	printTable(stdout, res, cfg.trace)
	for _, p := range res.problems {
		fmt.Fprintf(stdout, "MISMATCH %s\n", p)
	}
	if res.nProblems > len(res.problems) {
		fmt.Fprintf(stdout, "MISMATCH ... and %d more\n", res.nProblems-len(res.problems))
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d ops failed their output checks\n", w.name, rep.Failed, rep.Attempted)
		return 1
	}
	return 0
}

func buildReport(res *result, traced bool) (report, error) {
	rep := report{
		Correct:   res.failed == 0 && res.nProblems == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metric{},
	}
	if rep.Attempted < 1 {
		return rep, errors.New("no ops attempted")
	}
	if res.nProblems > 0 && rep.Failed == 0 {
		rep.Failed = 1
	}
	if traced {
		for _, m := range perLayer {
			rep.Metrics[m.name] = metric{res.metrics[m.name], m.unit}
		}
		return rep, nil
	}
	for _, m := range endToEnd {
		v, ok := res.metrics[m.name]
		if !ok || v <= 0 {
			return rep, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		rep.Metrics[m.name] = metric{v, m.unit}
	}
	return rep, nil
}

// printTable prints every measured metric with its unit, end-to-end ones
// first, then the notes (sample counts and the like).
func printTable(w io.Writer, res *result, traced bool) {
	fmt.Fprintf(w, "fail_ratio=%g (%d failed of %d attempted)\n", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	for _, m := range endToEnd {
		if v, ok := res.metrics[m.name]; ok {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	if traced {
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", m.name, res.metrics[m.name], m.unit)
		}
	}
	notes := append([]string(nil), res.notes...)
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(w, "  note: %s\n", strings.TrimSpace(n))
	}
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// memAcc sums runtime.MemStats deltas over the traced units of a run.
type memAcc struct {
	before                          runtime.MemStats
	mallocs, bytes, gcs, pauseNanos uint64
}

func (m *memAcc) start() { runtime.ReadMemStats(&m.before) }

func (m *memAcc) stop() {
	var a runtime.MemStats
	runtime.ReadMemStats(&a)
	m.mallocs += a.Mallocs - m.before.Mallocs
	m.bytes += a.TotalAlloc - m.before.TotalAlloc
	m.gcs += uint64(a.NumGC - m.before.NumGC)
	m.pauseNanos += a.PauseTotalNs - m.before.PauseTotalNs
}

// record stores the runtime.* metrics for the ops of the traced units.
func (m *memAcc) record(res *result, ops int) {
	res.metrics["runtime.mallocs_per_op"] = ratio(float64(m.mallocs), float64(ops))
	res.metrics["runtime.alloc_bytes_per_op"] = ratio(float64(m.bytes), float64(ops))
	res.metrics["runtime.gc_cycles"] = float64(m.gcs)
	res.metrics["runtime.gc_pause_ms"] = float64(m.pauseNanos) / 1e6
}

// traceUnit runs f, with spans and memory accounting on when on is set.
func traceUnit(tr *tracer, mem *memAcc, on bool, f func()) {
	if !on {
		f()
		return
	}
	tr.setOn(true)
	mem.start()
	f()
	mem.stop()
	tr.setOn(false)
}

// measureSetup runs set-up reps times, each from a collected heap, and
// stores the median as setup_s: one cold interval is at the mercy of a
// single GC or page-fault burst. The last repetition's products are kept.
func measureSetup(res *result, reps int, f func(op int32) error) error {
	var ts []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		var err error
		ts = append(ts, timed(func() { err = f(int32(i)) }))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	res.metrics["setup_s"] = median(ts)
	res.note("setup_s: median of %d set-ups (min %.4g s, max %.4g s)", reps, quantile(ts, 0), quantile(ts, 1))
	return nil
}

func readGraph(tr *tracer, text []byte, op int32) (*dfg.Graph, error) {
	sp := tr.begin("graphio.Read", -1, op)
	defer tr.end(sp)
	return graphio.Read(bytes.NewReader(text))
}

// recordEnumStats stores the per-op enum.Stats counters and their ratios.
func recordEnumStats(res *result, stats []enum.Stats) {
	var valid, cand, dup, inv, lt, outs, pruned, steals float64
	for _, st := range stats {
		valid += float64(st.Valid)
		cand += float64(st.Candidates)
		dup += float64(st.Duplicates)
		inv += float64(st.Invalid)
		lt += float64(st.LTRuns)
		outs += float64(st.OutputsTried)
		pruned += float64(st.SeedsPruned)
		steals += float64(st.Steals)
	}
	n := float64(len(stats))
	res.metrics["enum.candidates"] = cand / n
	res.metrics["enum.duplicates"] = dup / n
	res.metrics["enum.invalid"] = inv / n
	res.metrics["enum.lt_runs"] = lt / n
	res.metrics["enum.outputs_tried"] = outs / n
	res.metrics["enum.seeds_pruned"] = pruned / n
	res.metrics["enum.valid_per_candidate"] = ratio(valid, cand)
	res.metrics["enum.dup_per_candidate"] = ratio(dup, cand)
	res.metrics["parallel.steals"] = steals / n
}

func recordGraphio(res *result, tr *tracer) {
	reads := tr.durations("graphio.Read")
	res.metrics["graphio.read_ms_p50"] = ms(median(reads))
	res.metrics["graphio.read_calls"] = float64(len(reads))
}

// recordOverhead compares the traced units of a run with the untraced ones:
// trace.overhead is untraced throughput over traced throughput. plain and
// traced hold per-unit times; each unit completes opsPerUnit ops.
func recordOverhead(res *result, plain, traced []float64, opsPerUnit float64) {
	res.metrics["trace.ops_per_s"] = opsPerUnit / median(traced)
	res.metrics["trace.overhead"] = median(traced) / median(plain)
}
