package enum

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"polyise/internal/checkpoint"
	"polyise/internal/workload"
)

// TestResumeIgnoresSavedFrames pins that a resume never trusts the search
// frames a snapshot may carry (Outs, Ins, Frames). Files written by earlier
// builds have them, and a stale file can carry frames whose identity —
// depth, range end, budgets, the full (O, I) prefix — matches the live
// search node while their Cur lies past the true position. The test
// records the live frame stack of a serial worker at every visit point,
// attaches it with every Cur moved to the range end to mid-run periodic
// snapshots, and requires each resume to deliver exactly serial[Visited:]
// at 1 and 4 workers. The graph is one where trusting such a Cur loses
// cuts (the snapshots from cut 249 on): on most graphs later sibling nodes
// regenerate the skipped cuts in the same order, so the lie goes unseen.
func TestResumeIgnoresSavedFrames(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(3)), 40, workload.DefaultProfile())
	opt := DefaultOptions()
	opt.KeepCuts = true
	opt.Parallelism = 1

	type stack struct {
		outs, ins []int
		frames    []checkpoint.Frame
	}
	var stacks []stack
	var serial []string
	var e *incEnum
	e = newEnumShared(g, opt).newWorker(func(c Cut) bool {
		s := stack{outs: append([]int(nil), e.outs...), ins: append([]int(nil), e.Ilist...)}
		for _, r := range e.ranges {
			s.frames = append(s.frames, checkpoint.Frame{
				Depth: r.depth, Cur: r.end, End: r.end,
				OutsLen: r.outsLen, InsLen: r.insLen,
				NinLeft: r.ninLeft, NoutLeft: r.noutLeft,
			})
		}
		stacks = append(stacks, s)
		serial = append(serial, c.String())
		return true
	}, nil)
	for pos := 0; pos < g.N(); pos++ {
		e.topLevel(pos)
	}
	var want []string
	Enumerate(g, opt, func(c Cut) bool { want = append(want, c.String()); return true })
	if !reflect.DeepEqual(serial, want) {
		t.Fatalf("instrumented worker delivered %d cuts, Enumerate %d: not the serial order", len(serial), len(want))
	}

	// Mid-run snapshots: with CheckpointEvery=1 the file read at the visit
	// of cut k holds Visited = k-1, taken at the visit of stacks[k-2].
	live := filepath.Join(t.TempDir(), "live.ckpt")
	copt := opt
	copt.CheckpointPath = live
	copt.CheckpointEvery = 1
	var snaps []*checkpoint.Snapshot
	k := 0
	Enumerate(g, copt, func(Cut) bool {
		k++
		if k < 2 || len(stacks[k-2].frames) == 0 || k%5 != 0 {
			return true
		}
		snap, err := checkpoint.ReadFile(live)
		if err != nil {
			t.Fatalf("no periodic snapshot at cut %d: %v", k, err)
		}
		s := stacks[k-2]
		snap.Outs, snap.Ins, snap.Frames = s.outs, s.ins, s.frames
		snaps = append(snaps, snap)
		return true
	})
	if len(snaps) < 5 {
		t.Fatalf("only %d mid-run snapshots with open frames; the test is near-vacuous", len(snaps))
	}

	for _, snap := range snaps {
		for _, workers := range []int{1, 4} {
			ropt := opt
			ropt.Parallelism = workers
			var got []string
			stats, err := ResumeEnumerate(g, ropt, snap, func(c Cut) bool {
				got = append(got, c.String())
				return true
			})
			if err != nil {
				t.Fatalf("Visited=%d workers=%d: ResumeEnumerate: %v", snap.Visited, workers, err)
			}
			if !reflect.DeepEqual(got, serial[snap.Visited:]) || stats.Valid != len(serial) {
				t.Fatalf("Visited=%d workers=%d: resume diverges from serial[%d:] (%d cuts, Valid=%d; want %d, %d)",
					snap.Visited, workers, snap.Visited, len(got), stats.Valid, len(serial)-int(snap.Visited), len(serial))
			}
		}
	}
}
