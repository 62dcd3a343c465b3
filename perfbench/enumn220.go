package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"

	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/graphio"
	"polyise/internal/semoracle"
	"polyise/internal/workload"
)

// n220OpSeconds is the nominal length of one enum-n220 op on a 2-vCPU box;
// it converts --seconds into a fixed op count, so a run's work depends on
// its arguments only.
const n220OpSeconds = 2.0

// n220SetupReps is how many times enum-n220's set-up runs. One set-up
// takes under a millisecond, so many repetitions keep the median steady.
const n220SetupReps = 101

// n220SampleEvery picks about one cut in this many for the interpreter
// check of enum-n220's output.
const n220SampleEvery = 128

func runEnumN220(cfg config, tr *tracer) (*result, error) {
	res := newResult()
	nproc := runtime.GOMAXPROCS(0)
	var gi workload.GapInstance
	for _, inst := range workload.GapRegressionInstances() {
		if inst.Name == "mibench-n220-seed17" {
			gi = inst
		}
	}
	if gi.N == 0 {
		return nil, fmt.Errorf("pinned block mibench-n220-seed17 not found")
	}

	tr.setOn(cfg.trace)
	var g *dfg.Graph
	err := measureSetup(res, n220SetupReps, func(op int32) error {
		var buf bytes.Buffer
		sp := tr.begin("workload.MiBenchLike", -1, op)
		src := gi.Graph()
		tr.end(sp)
		if err := graphio.Write(&buf, src); err != nil {
			return err
		}
		var err error
		g, err = readGraph(tr, buf.Bytes(), op)
		return err
	})
	if err != nil {
		return nil, err
	}
	tr.setOn(false)

	opt := enum.DefaultOptions() // Nin=4, Nout=2
	opt.KeepCuts = false
	opt.Parallelism = nproc

	type opOut struct {
		digest cutSet
		stats  enum.Stats
		s      float64
	}
	var outs []opOut
	var sample []enum.Cut
	enumerate := func(o enum.Options, keepSample bool) opOut {
		op := int32(len(outs))
		var out opOut
		root := tr.begin("enum.Enumerate", -1, op)
		k := uint64(0)
		visit := func(c enum.Cut) bool {
			v := tr.begin("visit", root, op)
			out.digest.addWords(c.Nodes.Words())
			if keepSample && splitmix(uint64(cfg.seed)^k)%n220SampleEvery == 0 {
				sample = append(sample, c.Clone())
			}
			k++
			tr.end(v)
			return true
		}
		out.s = timed(func() { out.stats = enum.Enumerate(g, o, visit) })
		tr.end(root)
		outs = append(outs, out)
		return out
	}

	// The first op warms the heap and caches; it is checked but not timed.
	enumerate(opt, true)
	nOps := max(3, int(math.Round(float64(cfg.seconds)/n220OpSeconds)))
	// A traced run alternates untraced and traced ops, and every four ops
	// runs a serial reference op, so that drift in the box's speed during
	// the run falls on both sides of each comparison.
	so := opt
	so.Parallelism = 1
	var plain, traced, serial []float64
	var tracedStats []enum.Stats
	var mem memAcc
	for i := 0; i < nOps; i++ {
		on := cfg.trace && i%2 == 1
		var out opOut
		traceUnit(tr, &mem, on, func() { out = enumerate(opt, false) })
		if on {
			traced = append(traced, out.s)
			tracedStats = append(tracedStats, out.stats)
		} else {
			plain = append(plain, out.s)
		}
		if cfg.trace && i%4 == 2 {
			serial = append(serial, enumerate(so, false).s)
		}
	}
	res.metrics["peak_rss_mb"] = peakRSSMB()
	valid := float64(outs[len(outs)-1].stats.Valid)
	p50 := median(plain)
	res.metrics["op_p50_ms"] = ms(p50)
	res.metrics["op_p99_ms"] = ms(quantile(plain, 0.99))
	res.metrics["ops_per_s"] = 1 / p50
	res.metrics["cuts_per_s"] = valid / p50
	res.note("timed ops: %d enumerations (+1 warm-up) of %d cuts, %.3g s; op_p99_ms is the nearest-rank p99 of %d samples, i.e. the slowest op", len(plain), int(valid), plain, len(plain))

	// Output checks, outside the timed phase.
	tr.setOn(cfg.trace)
	ref := newReference(g, opt, cfg.corruptReference)
	if !cfg.corruptReference && ref.digest.n != gi.WantCuts {
		res.problem("reference: baseline found %d cuts, the pinned count is %d", ref.digest.n, gi.WantCuts)
	}
	for i, out := range outs {
		res.attempted++
		switch {
		case out.stats.StopReason != enum.StopNone || out.stats.Err != nil:
			res.failed++
			res.problem("op %d stopped early: %v %v", i, out.stats.StopReason, out.stats.Err)
		case out.digest != ref.digest:
			res.failed++
			res.problem("op %d: cut set %v, reference %v", i, out.digest, ref.digest)
		}
	}
	mismatches := 0
	for i, c := range sample {
		sp := tr.begin("semoracle.check", -1, int32(i))
		bad, err := semoracle.CheckCut(g, c, semoracle.DefaultEnvs, cfg.seed+int64(i))
		tr.end(sp)
		if err != nil || len(bad) > 0 {
			mismatches++
			res.problem("cut %v: interpreter check: %v %v", c, err, bad)
		}
	}
	if mismatches > 0 {
		res.failed++ // the sampled cuts come from the warm-up op
	}
	tr.setOn(false)
	res.note("output checks: %d ops against baseline.CollectPruned (%d cuts); %d sampled cuts through semoracle.CheckCut", len(outs), ref.digest.n, len(sample))

	if cfg.trace {
		mem.record(res, len(traced))
		recordEnumStats(res, tracedStats)
		res.metrics["enum.busy_s"] = tr.self("enum.Enumerate")
		res.metrics["enum.visit_s"] = tr.total("visit")
		res.metrics["enum.direct_ms_p50"] = ms(p50)
		res.metrics["parallel.speedup"] = median(serial) / p50
		res.metrics["parallel.efficiency"] = median(serial) / p50 / float64(nproc)
		res.metrics["semoracle.check_s"] = tr.total("semoracle.check")
		res.metrics["semoracle.mismatches"] = float64(mismatches)
		recordGraphio(res, tr)
		recordOverhead(res, plain, traced, 1)
	}
	return res, nil
}
