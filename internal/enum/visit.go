package enum

import (
	"runtime/debug"

	"polyise/internal/checkpoint"
	"polyise/internal/dfg"
	"polyise/internal/faultinject"
)

// visitPoint is the serial-order visit point of one run and the only place
// the caller's visitor is invoked: a serial run reaches it from checkCut
// through the worker's emit function, a parallel run from the merge drain.
// Every cut it receives is already deduplicated against the run's global
// digest table in serial order, so "the first delivered cuts of the serial
// order" holds here at every worker count. It owns the whole delivery
// contract: the delivered count, panic containment around the visitor,
// the StopVisitor, MaxCuts and CheckpointStop stops, the CheckpointEvery
// cadence and the one snapshot builder.
type visitPoint struct {
	visit     func(Cut) bool
	opt       Options
	seen      *sigSet // the run's global dedup table
	stats     *Stats  // receives stops and errors; counters for snapshots
	delivered int
	top       int // top-level position of the last delivered cut
	// ident carries the identity fields every snapshot repeats; nil unless
	// Options.CheckpointPath is set.
	ident *checkpoint.Snapshot
}

// newVisitPoint builds the visit point of a run over g whose global dedup
// table is seen and which records into stats. A resumed run (snap non-nil)
// continues the snapshot's delivered count, frontier and digest table, so
// MaxCuts and the CheckpointEvery cadence count across the seam and the
// replayed frontier subtree re-delivers nothing.
func newVisitPoint(g *dfg.Graph, opt Options, visit func(Cut) bool, snap *checkpoint.Snapshot, seen *sigSet, stats *Stats) *visitPoint {
	vp := &visitPoint{visit: visit, opt: opt, seen: seen, stats: stats}
	if opt.CheckpointPath != "" {
		vp.ident = &checkpoint.Snapshot{
			GraphHash: checkpoint.GraphDigest(g),
			GraphN:    g.N(),
			OptHash:   optionsFingerprint(opt),
		}
	}
	if snap != nil {
		vp.delivered = int(snap.Visited)
		vp.top = snap.CurTop
		for _, d := range snap.Digests {
			vp.seen.Insert(d)
		}
	}
	return vp
}

// deliver hands the cut c, produced under top-level position top, to the
// visitor and applies the contract after it. It reports whether the run
// may go on; on false the reason is in vp.stats.
func (vp *visitPoint) deliver(top int, c Cut) bool {
	vp.delivered++
	vp.top = top
	if !vp.call(c) {
		// A voluntary visitor stop; on a visitor panic RecordStop's
		// max-precedence keeps the StopError recorded by call.
		vp.stats.RecordStop(StopVisitor)
		return false
	}
	if vp.opt.MaxCuts > 0 && vp.delivered >= vp.opt.MaxCuts {
		vp.stats.RecordStop(StopBudget)
		return false
	}
	// Polled here as well as at the workers' sampled Stopper sites: a
	// parallel run's workers may all have finished producing before the
	// drain delivers the cut whose visitor pulls the trigger.
	if vp.opt.CheckpointStop != nil {
		select {
		case <-vp.opt.CheckpointStop:
			vp.stats.RecordStop(StopCheckpoint)
			return false
		default:
		}
	}
	if vp.ident != nil && vp.opt.CheckpointEvery > 0 && vp.delivered%vp.opt.CheckpointEvery == 0 {
		return vp.write(false)
	}
	return true
}

// call invokes the visitor, containing a panic as the run's first error.
func (vp *visitPoint) call(c Cut) (ok bool) {
	defer vp.contain(&ok)
	return vp.visit(c)
}

// contain, deferred around the visitor call and the snapshot write, turns a
// panic into the run's first error and a false result.
func (vp *visitPoint) contain(ok *bool) {
	if v := recover(); v != nil {
		vp.fail(&PanicError{Value: v, Stack: debug.Stack()})
		*ok = false
	}
}

// fail records err as the run's first error and stops it with StopError.
func (vp *visitPoint) fail(err error) {
	if vp.stats.Err == nil {
		vp.stats.Err = err
	}
	vp.stats.RecordStop(StopError)
}

// finish settles the run's returned stats — Valid is the delivered count —
// and writes the final snapshot from them, marked Done when the run
// exhausted the search space.
func (vp *visitPoint) finish(stats *Stats) {
	vp.stats = stats
	stats.Valid = vp.delivered
	if vp.ident != nil {
		vp.write(stats.StopReason == StopNone)
	}
}

// write persists a snapshot of the run: the delivered count, the frontier,
// the counters of vp.stats and the global digest table, or — for a
// completed run — only the counters, with nothing left to resume. The
// frontier is the last delivered cut's top-level position: in serial order
// every earlier position is fully explored. A failed write stops the run
// with StopError, since going on would silently void durability.
//
// The write is atomic (checkpoint.WriteFile is temp+rename), and the
// faultinject site lets the chaos suite kill a run mid-write to prove the
// previous snapshot survives. A panic in the write is contained here: the
// merge drain and the final write sit outside every search containment
// boundary.
func (vp *visitPoint) write(done bool) (ok bool) {
	s := *vp.ident
	s.Reason = uint8(vp.stats.StopReason)
	s.Done = done
	s.Visited = int64(vp.delivered)
	counters := *vp.stats
	counters.Valid = vp.delivered
	s.Stats = countersOf(counters)
	if done {
		s.CurTop = s.GraphN
	} else {
		s.CurTop = vp.top
		s.Digests = vp.seen.AppendDigests(nil)
	}
	defer vp.contain(&ok)
	if h := faultinject.OnCheckpointWrite; h != nil {
		h()
	}
	if err := checkpoint.WriteFile(vp.opt.CheckpointPath, &s); err != nil {
		vp.fail(err)
		return false
	}
	return true
}
