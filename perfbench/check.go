package main

import (
	"fmt"
	"math/bits"

	"polyise/internal/baseline"
	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/ise"
	"polyise/internal/semoracle"
)

// cutSet is an order-independent digest of a set of vertex sets: the
// count plus two lanes of summed per-set hashes. Summing (not XOR-ing)
// keeps a repeated set visible. The hash is computed here from the member
// list, so the check depends on neither internal/enum nor the bitset
// package's own dedup hash.
type cutSet struct {
	n    int
	a, b uint64
}

func (d *cutSet) addMembers(members []int) {
	h := uint64(14695981039346656037)
	for _, m := range members {
		h ^= uint64(uint32(m))
		h *= 1099511628211
	}
	d.add(h, uint64(len(members)))
}

// addWords digests a vertex set given as bitset words; it hashes the same
// ascending member sequence as addMembers.
func (d *cutSet) addWords(words []uint64) {
	h := uint64(14695981039346656037)
	k := uint64(0)
	for i, w := range words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			h ^= uint64(uint32(i*64 + b))
			h *= 1099511628211
			k++
		}
	}
	d.add(h, k)
}

func (d *cutSet) add(h, size uint64) {
	d.n++
	d.a += splitmix(h)
	d.b += splitmix(h ^ size<<40 ^ 0x9e3779b97f4a7c15)
}

func (d cutSet) String() string { return fmt.Sprintf("%d cuts/%016x%016x", d.n, d.a, d.b) }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func digestCuts(cuts []enum.Cut) cutSet {
	var d cutSet
	for _, c := range cuts {
		d.addWords(c.Nodes.Words())
	}
	return d
}

// reference is the expected output for one graph under one constraint,
// computed by the pruned-exhaustive search of internal/baseline, which
// shares no search code with internal/enum.
type reference struct {
	cuts   []enum.Cut
	digest cutSet
}

// newReference computes the reference for g under opt. With corrupt set
// the digest is perturbed, so every check against it must fail; the
// benchmark's own test uses that to prove the checks can fail.
func newReference(g *dfg.Graph, opt enum.Options, corrupt bool) reference {
	cuts, _ := baseline.CollectPruned(g, opt)
	d := digestCuts(cuts)
	if corrupt {
		d.a++
	}
	return reference{cuts: cuts, digest: d}
}

// selection digests chosen instructions (their vertex sets and savings),
// ignoring order.
func selectionDigest(sel ise.Selection) cutSet {
	var d cutSet
	for _, e := range sel.Chosen {
		d.addWords(e.Cut.Nodes.Words())
		d.a += uint64(e.Saving)
	}
	return d
}

// checkSelection re-checks chosen instructions: every chosen cut must
// compute the same values as the original graph under the interpreter,
// and the selection must respect its port, overlap and accounting
// invariants. It returns one line per problem.
func checkSelection(g *dfg.Graph, sel ise.Selection, eopt enum.Options, seed int64) []string {
	problems := semoracle.Invariants(g, sel, eopt, ise.DefaultSelectOptions())
	for i, e := range sel.Chosen {
		bad, err := semoracle.CheckCut(g, e.Cut, semoracle.DefaultEnvs, seed+int64(i))
		if err != nil {
			problems = append(problems, fmt.Sprintf("instruction %d: %v", i, err))
		}
		for _, b := range bad {
			problems = append(problems, fmt.Sprintf("instruction %d: %s", i, b))
		}
	}
	return problems
}
