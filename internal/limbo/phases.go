package limbo

import (
	"context"
	"math"

	"structmine/internal/ib"
	"structmine/internal/it"
)

// Phase2Ctx runs AIB over the Phase 1 leaf summaries down to k clusters,
// under the context's worker budget, and returns the full merge result.
// Labels are synthesized from each leaf's first member id.
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

// ThresholdFor is τ = φ·I(V;T)/|V| over the objects, skipping I(V;T) at
// φ = 0, where τ is 0 whatever I is.
func ThresholdFor(phi float64, objs []Obj) float64 {
	if phi == 0 {
		return 0
	}
	return Threshold(phi, MutualInfo(objs), len(objs))
}

// Phase1Ctx runs Phase 1 over a batch of objects at a fixed threshold τ
// and returns the leaf summaries and each object's leaf (an index into
// leaves). It is the one Phase 1 loop behind the tuple summary and the
// value clustering.
//
// For τ > 0 the objects stream into a B-ary DCF-tree in order; leaves
// come left to right, and an object's leaf is the one that absorbed it
// at insertion. The leaves live in the tree's arena, pooled when the
// context carries a scheduler grant.
//
// At τ = 0 the only merge a leaf admits is one that loses no
// information: objects with identical conditionals. One hash pass groups
// the objects whose conditionals are bit-identical (the same coordinates
// and the same probability bits) instead of routing them through the
// tree, whose greedy descent can send two identical objects down
// different branches. A group's DCF is NewDCF of its first member
// absorbing the rest in object order — bit-identical to the leaf a tree
// builds from the same members — and groups are numbered by first
// member. The leaves are plain heap DCFs.
func Phase1Ctx(ctx context.Context, objs []Obj, tau float64, b int) ([]*DCF, []int32) {
	if tau == 0 {
		return groupIdentical(objs)
	}
	t := NewTreeCtx(ctx, Config{B: b, Threshold: tau})
	absorbedBy := make([]*DCF, len(objs)) // stable: no rebuild without MaxLeafEntries
	for i, o := range objs {
		absorbedBy[i] = t.Insert(o)
	}
	leaves := t.Leaves()
	index := make(map[*DCF]int32, len(leaves))
	for i, d := range leaves {
		index[d] = int32(i)
	}
	leafOf := make([]int32, len(objs))
	for i, d := range absorbedBy {
		leafOf[i] = index[d]
	}
	return leaves, leafOf
}

// groupIdentical is Phase 1 at τ = 0. Groups whose conditionals hash
// alike are chained through next, newest first, so a collision costs one
// exact comparison per chained group.
func groupIdentical(objs []Obj) ([]*DCF, []int32) {
	var (
		leaves []*DCF
		first  []int32 // group → its first member
		next   []int32 // group → the next group of its hash chain, or -1
	)
	head := make(map[uint64]int32, len(objs)) // hash → newest group + 1
	leafOf := make([]int32, len(objs))
	for i, o := range objs {
		h := condHash(o.Cond)
		g := head[h] - 1
		for g >= 0 && !sameCond(objs[first[g]].Cond, o.Cond) {
			g = next[g]
		}
		if g >= 0 {
			leaves[g].AbsorbObj(o)
		} else {
			g = int32(len(leaves))
			leaves = append(leaves, NewDCF(o))
			first = append(first, int32(i))
			next = append(next, head[h]-1)
			head[h] = g + 1
		}
		leafOf[i] = g
	}
	return leaves, leafOf
}

// condHash mixes a conditional's coordinates and probability bits
// (FNV-1a over 64-bit words).
func condHash(c it.Vec) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, e := range c {
		h = (h ^ uint64(uint32(e.Idx))) * prime
		h = (h ^ math.Float64bits(e.P)) * prime
	}
	return h
}

// sameCond reports whether two conditionals are bit-identical.
func sameCond(a, b it.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Idx != b[i].Idx || math.Float64bits(a[i].P) != math.Float64bits(b[i].P) {
			return false
		}
	}
	return true
}

// BuildTreeCtx runs Phase 1 over the given objects with threshold
// τ = φ·I(V;T)/|V| (I computed exactly from the objects), under the
// context's worker budget and arena pool, and returns the populated tree.
func BuildTreeCtx(ctx context.Context, objs []Obj, phi float64, b int) *Tree {
	tau := Threshold(phi, MutualInfo(objs), len(objs))
	t := NewTreeCtx(ctx, Config{B: b, Threshold: tau})
	for _, o := range objs {
		t.Insert(o)
	}
	return t
}
