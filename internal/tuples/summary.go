package tuples

import (
	"context"

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
	// leaf order.
	Multi []*limbo.DCF
}

// Summarize runs the Phase 1 pass over the tuple objects (ID = tuple
// position, as Objects and ObjectsColumnsCtx number them) at
// τ = φT·I(V;T)/n: limbo.Phase1Ctx, a DCF-tree for φT > 0 and one hash
// pass over identical tuples at φT = 0. Membership is tracked during the
// pass (the leaf DCFs "define a clustering of the tuples seen so far").
// It is the one place tuple clustering runs Phase 1 at a threshold; at
// φT = 0 the tasks read the same grouping off Π_R instead
// (FindDuplicatesColumns, CompressColumns), and this pass is the
// reference their tests compare against.
func Summarize(ctx context.Context, objs []limbo.Obj, phiT float64, b int) *Summary {
	tau := limbo.ThresholdFor(phiT, objs)
	leaves, leafOf := limbo.Phase1Ctx(ctx, objs, tau, b)
	s := &Summary{Threshold: tau, LeafCount: len(leaves), LeafOf: leafOf}
	for _, d := range leaves {
		if d.N >= 2 {
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
// threshold. objs are the objects the summary was built over. At
// φT = 0 FindDuplicatesColumns reads the groups off Π_R instead.
func (s *Summary) Duplicates(ctx context.Context, objs []limbo.Obj) *DuplicateReport {
	rep := &DuplicateReport{Summaries: s.Multi, LeafCount: s.LeafCount, Threshold: s.Threshold}
	rep.Assign = limbo.AssignCtx(ctx, rep.Summaries, objs)
	cutoff := s.Threshold + 1e-12
	for t := range rep.Assign {
		if rep.Assign[t].Loss > cutoff {
			rep.Assign[t].Cluster = -1
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
