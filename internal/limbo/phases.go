package limbo

import (
	"context"

	"structmine/internal/ib"
	"structmine/internal/it"
)

// Phase2 runs AIB over the Phase 1 leaf summaries down to k clusters and
// returns the full merge result. Labels are synthesized from each leaf's
// first member id.
func Phase2(leaves []*DCF, k int) *ib.Result {
	return Phase2Ctx(context.Background(), leaves, k)
}

// Phase2Ctx is Phase2 under the context's worker budget.
func Phase2Ctx(ctx context.Context, leaves []*DCF, k int) *ib.Result {
	objs := make([]ib.Object, len(leaves))
	for i, d := range leaves {
		objs[i] = ib.Object{Label: leafLabel(d), P: d.W, Cond: d.Cond()}
	}
	return ib.AgglomerateKCtx(ctx, objs, k)
}

func leafLabel(d *DCF) string {
	if d.N == 1 {
		return "obj" + itoa(int(d.FirstID))
	}
	return "leaf@" + itoa(int(d.FirstID)) + "(x" + itoa(d.N) + ")"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// RepsFromClusters merges leaf DCFs into one representative DCF per
// cluster (clusters given as leaf-index groups, e.g. from
// ib.Result.ClustersAt).
func RepsFromClusters(leaves []*DCF, clusters [][]int) []*DCF {
	reps := make([]*DCF, len(clusters))
	for ci, group := range clusters {
		var rep *DCF
		for _, li := range group {
			if rep == nil {
				rep = leaves[li].Clone()
			} else {
				rep.AbsorbDCF(leaves[li])
			}
		}
		reps[ci] = rep
	}
	return reps
}

// MutualInfo returns I(V;T) of a set of objects — the information the
// un-clustered representation retains, used for the Phase 1 threshold
// τ = φ·I(V;T)/|V| and for loss reporting.
func MutualInfo(objs []Obj) float64 {
	px := make([]float64, len(objs))
	cond := make([]it.Vec, len(objs))
	for i, o := range objs {
		px[i] = o.W
		cond[i] = o.Cond
	}
	return (&it.JointDist{PX: px, CondT: cond}).MutualInfo()
}

// MutualInfoOfAssignment returns I(C;T) for the clustering induced by a
// Phase 3 assignment over k clusters.
func MutualInfoOfAssignment(objs []Obj, assign []Assignment, k int) float64 {
	reps := make([]*DCF, k)
	for oi, a := range assign {
		if a.Cluster < 0 || a.Cluster >= k {
			continue
		}
		if reps[a.Cluster] == nil {
			reps[a.Cluster] = NewDCF(objs[oi])
		} else {
			reps[a.Cluster].AbsorbObj(objs[oi])
		}
	}
	px := make([]float64, 0, k)
	cond := make([]it.Vec, 0, k)
	for _, r := range reps {
		if r == nil {
			continue
		}
		px = append(px, r.W)
		cond = append(cond, r.Cond())
	}
	return (&it.JointDist{PX: px, CondT: cond}).MutualInfo()
}

// Threshold computes τ = φ·I/|V| with the paper's convention.
func Threshold(phi, mutualInfo float64, numObjects int) float64 {
	if numObjects == 0 {
		return 0
	}
	return phi * mutualInfo / float64(numObjects)
}

// BuildTree runs Phase 1 over the given objects with threshold
// τ = φ·I(V;T)/|V| (I computed exactly from the objects) and returns the
// populated tree.
func BuildTree(objs []Obj, phi float64, b int) *Tree {
	return BuildTreeCtx(context.Background(), objs, phi, b)
}

// BuildTreeCtx is BuildTree under the context's worker budget and arena
// pool.
func BuildTreeCtx(ctx context.Context, objs []Obj, phi float64, b int) *Tree {
	tau := Threshold(phi, MutualInfo(objs), len(objs))
	t := NewTreeCtx(ctx, Config{B: b, Threshold: tau})
	for _, o := range objs {
		t.Insert(o)
	}
	return t
}

// BuildTreeMaxLeaves runs Phase 1 in leaf-bounded mode (Section 6.1.2's
// horizontal-partitioning protocol: "pick a number of leaves that is
// sufficiently large").
func BuildTreeMaxLeaves(objs []Obj, maxLeaves, b int) *Tree {
	return BuildTreeMaxLeavesCtx(context.Background(), objs, maxLeaves, b)
}

// BuildTreeMaxLeavesCtx is BuildTreeMaxLeaves under the context's
// worker budget and arena pool.
func BuildTreeMaxLeavesCtx(ctx context.Context, objs []Obj, maxLeaves, b int) *Tree {
	t := NewTreeCtx(ctx, Config{B: b, MaxLeafEntries: maxLeaves})
	for _, o := range objs {
		t.Insert(o)
	}
	return t
}
