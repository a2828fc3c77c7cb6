package tuples

import (
	"context"
	"math"

	"structmine/internal/limbo"
)

// Summary is what the consumers of a threshold-bounded Phase 1 pass over
// the tuples read of its leaves: double clustering the per-tuple leaf
// membership (Section 6.2), duplicate detection the leaves that absorbed
// more than one tuple (Section 6.1.1). It holds plain values only —
// nothing carved from a tree's arena — so it outlives the tree that
// built it. A Summary is read-only once built, and lives inside the
// job that built it: Phase 1 is one pass each question makes for itself.
type Summary struct {
	// Threshold is τ = φT·I(V;T)/n, the loss a leaf may absorb.
	Threshold float64
	// LeafCount is the number of leaf summaries; LeafOf[t] is the leaf
	// that absorbed tuple t. Leaves are numbered as limbo.Phase1Ctx
	// returns them: left to right in the tree for τ > 0, by first member
	// at τ = 0, where every leaf is a group of identical tuples.
	LeafCount int
	LeafOf    []int32
	// Multi are the leaves summarizing several tuples (p(c) > 1/n), in
	// leaf order; multiOf[l] is leaf l's index in Multi, or -1.
	Multi   []*limbo.DCF
	multiOf []int32
}

// Summarize runs the Phase 1 pass over the tuple objects (ID = tuple
// position, as Objects and ObjectsColumnsCtx number them) at
// τ = φT·I(V;T)/n: limbo.Phase1Ctx, a DCF-tree for φT > 0 and one hash
// pass over identical tuples at φT = 0. Membership is tracked during the pass (the leaf DCFs "define a clustering of the
// tuples seen so far"). It is the one place tuple clustering runs
// Phase 1 at a threshold.
func Summarize(ctx context.Context, objs []limbo.Obj, phiT float64, b int) *Summary {
	tau := limbo.ThresholdFor(phiT, objs)
	leaves, leafOf := limbo.Phase1Ctx(ctx, objs, tau, b)
	s := &Summary{Threshold: tau, LeafCount: len(leaves), LeafOf: leafOf, multiOf: make([]int32, len(leaves))}
	for l, d := range leaves {
		s.multiOf[l] = -1
		if d.N >= 2 {
			s.multiOf[l] = int32(len(s.Multi))
			s.Multi = append(s.Multi, d.Clone())
		}
	}
	return s
}

// Clusters is the double-clustering reading: the per-tuple cluster id
// and the number of tuple clusters.
func (s *Summary) Clusters() ([]int, int) {
	out := make([]int, len(s.LeafOf))
	for t, l := range s.LeafOf {
		out[t] = int(l)
	}
	return out, s.LeafCount
}

// Duplicates is the duplicate-detection reading: every tuple object is
// associated with its closest multi-tuple leaf (Phase 3), and joins that
// leaf's group only when the association loss is within the Phase 1
// threshold. objs are the objects the summary was built over.
//
// At τ = 0 no Phase 3 runs: every leaf is a class of identical tuples,
// so a tuple of a multi-tuple leaf joins that leaf at loss 0, and any
// other tuple joins no group (Cluster -1, Loss +Inf) — its row differs
// from every multi-tuple leaf's, so no association is within τ.
func (s *Summary) Duplicates(ctx context.Context, objs []limbo.Obj) *DuplicateReport {
	rep := &DuplicateReport{Summaries: s.Multi, LeafCount: s.LeafCount, Threshold: s.Threshold}
	if s.Threshold == 0 {
		rep.Assign = make([]limbo.Assignment, len(s.LeafOf))
		for t, l := range s.LeafOf {
			rep.Assign[t] = limbo.Assignment{Cluster: int(s.multiOf[l])}
			if rep.Assign[t].Cluster < 0 {
				rep.Assign[t].Loss = math.Inf(1)
			}
		}
	} else {
		rep.Assign = limbo.AssignCtx(ctx, rep.Summaries, objs)
		cutoff := s.Threshold + 1e-12
		for t := range rep.Assign {
			if rep.Assign[t].Loss > cutoff {
				rep.Assign[t].Cluster = -1
			}
		}
	}
	rep.Groups = make([][]int, len(rep.Summaries))
	for t, a := range rep.Assign {
		if a.Cluster >= 0 {
			rep.Groups[a.Cluster] = append(rep.Groups[a.Cluster], t)
		}
	}
	return rep
}
