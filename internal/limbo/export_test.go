package limbo

import (
	"context"
	"fmt"
	"math"
	"slices"
)

// NewStreamTree is the empty tree StreamTreeCtx would stream objs into,
// for tests that insert in lockstep with another tree.
func NewStreamTree(ctx context.Context, cfg Config, objs []Obj) *Tree {
	return newStreamTree(ctx, cfg, objs)
}

// Steer sets the tree's decision hook (Tree.steer).
func (t *Tree) Steer(f func(dist []float64, choice int) int) { t.steer = f }

// Unit is the information one δI unit of the tree's kernel stands for:
// 1 on a float tree, s₀ on a count tree.
func (t *Tree) Unit() float64 { return t.unit() }

// Counted reports whether the tree runs on the count kernel.
func (t *Tree) Counted() bool { return t.ck != nil }

// SameDCF is sameDCF for the external tests.
func SameDCF(a, b *DCF) error { return sameDCF(a, b) }

// sameDCF compares two float DCFs bit for bit: W, N, FirstID, each
// tier's coordinates, sums and memoized logarithms (so the main/tail
// split too), and whether a rank index is present. Paths that
// must agree exactly — parallel and serial inserts, the τ = 0 hash pass
// and a tree — are held to it, not to a tolerance.
func sameDCF(a, b *DCF) error {
	bits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch {
	case !bits(a.W, b.W) || !bits(a.wlog, b.wlog) || a.N != b.N || a.FirstID != b.FirstID:
		return fmt.Errorf("header differs: (%v,%v,%d,%d) vs (%v,%v,%d,%d)",
			a.W, a.wlog, a.N, a.FirstID, b.W, b.wlog, b.N, b.FirstID)
	case (a.rank != nil) != (b.rank != nil):
		return fmt.Errorf("rank index present: %t vs %t", a.rank != nil, b.rank != nil)
	}
	for _, tier := range []struct {
		name       string
		aIdx, bIdx []int32
		aVal, bVal []float64
		aLog, bLog []float64
	}{
		{"main", a.idx, b.idx, a.val, b.val, a.vlog, b.vlog},
		{"tail", a.tidx, b.tidx, a.tval, b.tval, a.tvlog, b.tvlog},
	} {
		if !slices.Equal(tier.aIdx, tier.bIdx) {
			return fmt.Errorf("%s tier coordinates %v vs %v", tier.name, tier.aIdx, tier.bIdx)
		}
		if !slices.EqualFunc(tier.aVal, tier.bVal, bits) || !slices.EqualFunc(tier.aLog, tier.bLog, bits) {
			return fmt.Errorf("%s tier sums %v vs %v", tier.name, tier.aVal, tier.bVal)
		}
	}
	return nil
}
