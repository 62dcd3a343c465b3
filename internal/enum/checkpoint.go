package enum

// Durable checkpoint/resume integration. A run with Options.CheckpointPath
// set writes snapshots (internal/checkpoint) at the serial-order visit
// point — the only quiescent cut across worker schedules — and
// ResumeEnumerate continues an interrupted run such that the snapshot's
// delivered prefix concatenated with the resumed run's sequence is
// bit-identical to an uninterrupted serial run, at any worker count on
// either side of the seam.
//
// # What a snapshot needs, and why it is enough
//
// Three facts carry the whole design (docs/ALGORITHM.md §12):
//
//  1. Cut validity is a pure function of the vertex set S, which is itself
//     a pure function of the (outs, Ilist) choice stacks (rebuildS — the
//     PR 6 stealing invariant).
//  2. The exploration order is independent of dedup contents and visitor
//     verdicts: the search visits candidate (outs, Ilist) nodes in a fixed
//     order; dedup and validation only decide delivery, never traversal.
//  3. Every snapshot is taken at the serial-order visit point, so "the
//     first Visited cuts of the serial order" describes the delivered
//     prefix exactly, at any worker count.
//
// Therefore a resume needs only: the first top-level position not fully
// visited (CurTop), the dedup digests of what was already delivered, and
// the delivered count. It restarts the top-level loop at CurTop; the
// in-progress subtree is REPLAYED, and the restored digest table suppresses
// re-delivery of its pre-snapshot cuts — the dedup table is the skip
// mechanism, not just an optimization. By facts 1 and 2 the replay walks
// the same nodes to the same verdicts, so the first novel delivery is
// exactly the cut the interrupted run would have delivered next.
//
// One visit point (visitPoint, visit.go) takes every snapshot, serial or
// parallel, so both have the same shape. Snapshots carry no search frames
// (checkpoint.Frame): files from earlier builds that have them still
// decode, and resume ignores the frames, since the replay needs none.
//
// Dedup-scope compatibility across the seam: serial tables hold every
// candidate digest, the parallel merge's table only delivered cuts'. Both
// resume directions are sound because a digest NOT in the table is simply
// re-validated — and by fact 1 an invalid candidate re-validates to
// invalid — so only the Duplicates/Invalid attribution can shift, which
// the Stats contract already leaves free.

import (
	"errors"
	"fmt"

	"polyise/internal/bitset"
	"polyise/internal/checkpoint"
	"polyise/internal/dfg"
	"polyise/internal/parallel"
)

// ErrCompleted is returned by ResumeEnumerate for a snapshot whose run
// exhausted the search space: there is nothing to resume.
var ErrCompleted = errors.New("enum: snapshot records a completed run; nothing to resume")

// optionsFingerprint hashes the Options fields that define the cut set and
// its visit order: the port constraints, connectivity/latency restrictions
// and the pruning toggles (the two approximate prunings change the cut set,
// the exact ones canonicalize the order's derivation). Budgets, deadlines,
// contexts, KeepCuts and Parallelism are excluded on purpose — the
// determinism contract makes them output-invariant, so a resume may
// legitimately change them (most obviously the worker count).
func optionsFingerprint(opt Options) uint64 {
	h := bitset.NewHasher128()
	h.Int(opt.MaxInputs)
	h.Int(opt.MaxOutputs)
	h.Int(opt.MaxDepth)
	flags := 0
	for i, b := range [...]bool{
		opt.ConnectedOnly,
		opt.PruneOutputOutput,
		opt.PruneInputInput,
		opt.PruneOutputInput,
		opt.PruneWhileBuildingS,
		opt.PruneInfeasibleBudget,
		opt.PruneDominatorInput,
		opt.PruneForbiddenAncestors,
	} {
		if b {
			flags |= 1 << i
		}
	}
	h.Int(flags)
	return h.Sum()[0]
}

// countersOf extracts the advisory work counters of a Stats.
func countersOf(s Stats) checkpoint.Counters {
	return checkpoint.Counters{
		Valid:        int64(s.Valid),
		Candidates:   int64(s.Candidates),
		Duplicates:   int64(s.Duplicates),
		Invalid:      int64(s.Invalid),
		LTRuns:       int64(s.LTRuns),
		SeedsPruned:  int64(s.SeedsPruned),
		OutputsTried: int64(s.OutputsTried),
		Steals:       int64(s.Steals),
	}
}

// statsFromCounters is the inverse of countersOf, as the resumed run's
// counter baseline.
func statsFromCounters(c checkpoint.Counters) Stats {
	return Stats{
		Valid:        int(c.Valid),
		Candidates:   int(c.Candidates),
		Duplicates:   int(c.Duplicates),
		Invalid:      int(c.Invalid),
		LTRuns:       int(c.LTRuns),
		SeedsPruned:  int(c.SeedsPruned),
		OutputsTried: int(c.OutputsTried),
		Steals:       int(c.Steals),
	}
}

// ResumeEnumerate continues an interrupted enumeration from a decoded
// snapshot (checkpoint.ReadFile): after validating that g and opt describe
// the same problem the snapshot was taken from, it delivers to visit
// exactly the cuts an uninterrupted serial run would have delivered AFTER
// the snapshot's prefix — prefix + resumed sequence is bit-identical to
// the uninterrupted serial sequence, at any Parallelism on either side of
// the seam, with no duplicate or missing cuts.
//
// Counting is global across the seam: the returned Stats.Valid, a MaxCuts
// cap and the CheckpointEvery cadence all count cuts of the whole logical
// run, snapshot prefix included. The work counters (Candidates, LTRuns, …)
// are advisory on a resumed run — the replay of the in-progress subtree
// re-executes pre-snapshot work — and a pre-snapshot candidate replayed
// against a dedup table that only tracked deliveries can shift attribution
// between Duplicates and Invalid, exactly the freedom the Stats contract
// already grants across worker counts.
//
// Errors: ErrCompleted when the snapshot records a finished run, a
// *checkpoint.MismatchError when g or the semantic Options differ from the
// snapshot's, and the run's own Stats.Err (panic, stall, failed snapshot
// write) otherwise. With CheckpointPath set the resumed run keeps
// checkpointing, so crash→resume chains arbitrarily.
func ResumeEnumerate(g *dfg.Graph, opt Options, snap *checkpoint.Snapshot, visit func(Cut) bool) (Stats, error) {
	// Identity is validated before the Done check: a completed snapshot
	// for a *different* graph or configuration must be refused as a
	// mismatch, not reported as "nothing to resume" for this one.
	if gh := checkpoint.GraphDigest(g); gh != snap.GraphHash || g.N() != snap.GraphN {
		return Stats{}, &checkpoint.MismatchError{
			Field: "graph",
			Want:  fmt.Sprintf("n=%d digest=%016x%016x", snap.GraphN, snap.GraphHash[0], snap.GraphHash[1]),
			Got:   fmt.Sprintf("n=%d digest=%016x%016x", g.N(), gh[0], gh[1]),
		}
	}
	if oh := optionsFingerprint(opt); oh != snap.OptHash {
		return Stats{}, &checkpoint.MismatchError{
			Field: "options",
			Want:  fmt.Sprintf("%016x", snap.OptHash),
			Got:   fmt.Sprintf("%016x", oh),
		}
	}
	if snap.Done {
		return Stats{}, ErrCompleted
	}
	if snap.CurTop < 0 || snap.CurTop > g.N() {
		return Stats{}, &checkpoint.FormatError{Reason: "frontier position out of range"}
	}
	var stats Stats
	if w := parallel.Workers(opt.Parallelism); w > 1 && g.N() > 1 {
		stats = enumerateParallel(g, opt, visit, w, snap)
	} else {
		stats = enumerateSerial(g, opt, visit, snap)
	}
	if stats.Err != nil {
		return stats, stats.Err
	}
	return stats, nil
}
