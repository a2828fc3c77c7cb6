package fd

import (
	"context"
	"fmt"
	"sort"

	"structmine/internal/exec"
	"structmine/internal/relation"
)

// ApproxFD is an approximate functional dependency: X → A holds after
// removing an Err fraction of tuples (the g3 measure of Huhtala et al.).
// The paper's Section 6.2 connects these to almost-perfect value
// co-occurrence: a single erroneous value turns an exact dependency
// (Figure 4's C→B) into an approximate one (Figure 5).
type ApproxFD struct {
	FD  FD
	Err float64 // g3 ∈ [0, 1); 0 means the FD holds exactly
}

// MineApprox returns all minimal approximate dependencies X → A with
// g3(X→A) ≤ eps, level-wise over the left-hand-side lattice with
// stripped partitions. Minimality is with respect to the approximate
// relation: no proper subset of X satisfies the error bound. Exact FDs
// (g3 = 0) are included with Err = 0.
//
// maxLHS bounds the left-hand-side size (0 means no bound). The miner is
// exponential in the worst case like any lattice search; the bound keeps
// interactive use cheap on wide relations.
func MineApprox(r *relation.Relation, eps float64, maxLHS int) ([]ApproxFD, error) {
	return MineApproxCtx(context.Background(), r, eps, maxLHS)
}

// MineApproxCtx is MineApprox with the scratch slabs carved from the
// context's pooled arena (the lattice walk itself is serial: each level
// reuses one probe table, and candidate counts stay small under the
// maxLHS bound).
func MineApproxCtx(ctx context.Context, r *relation.Relation, eps float64, maxLHS int) ([]ApproxFD, error) {
	return MineApproxColumns(ctx, relation.AsColumns(r), eps, maxLHS)
}

// MineApproxColumns is the miner over the column interface: the level-1
// partitions come from the value index (or a relation.PartitionSource),
// so a paged table and a resident relation behind relation.AsColumns
// walk the same lattice to the same result.
func MineApproxColumns(ctx context.Context, c relation.Columns, eps float64, maxLHS int) ([]ApproxFD, error) {
	m, n := c.M(), c.N()
	if m > MaxAttrs {
		return nil, fmt.Errorf("fd: relation has %d attributes, max %d", m, MaxAttrs)
	}
	if n == 0 || m == 0 {
		return nil, nil
	}
	if eps < 0 {
		eps = 0
	}
	if maxLHS <= 0 || maxLHS > m-1 {
		maxLHS = m - 1
	}
	sc := &prodScratch{ar: exec.CheckoutArena(ctx)} // one reusable probe table for every product and g3 below

	// Partitions per LHS set, built level by level.
	parts := map[AttrSet]*partition{0: emptyPartition(n)}
	for a := 0; a < m; a++ {
		p, err := singlePartitionColumns(c, a)
		if err != nil {
			return nil, err
		}
		parts[NewAttrSet(a)] = p
	}

	// found[a] lists the minimal satisfying LHSs discovered so far for
	// attribute a; candidates that contain one are pruned.
	found := make([][]AttrSet, m)
	var out []ApproxFD

	record := func(x AttrSet, a int, err float64) {
		found[a] = append(found[a], x)
		out = append(out, ApproxFD{FD: FD{LHS: x, RHS: NewAttrSet(a)}, Err: err})
	}

	// Level 0: ∅ → a.
	for a := 0; a < m; a++ {
		if err := g3FromPartitions(parts[0], parts[NewAttrSet(a)], n, sc); err <= eps {
			record(0, a, err)
		}
	}

	level := make([]AttrSet, 0, m)
	for a := 0; a < m; a++ {
		level = append(level, NewAttrSet(a))
	}
	for size := 1; size <= maxLHS && len(level) > 0; size++ {
		for _, x := range level {
		rhs:
			for a := 0; a < m; a++ {
				if x.Has(a) {
					continue
				}
				for _, min := range found[a] {
					if min.SubsetOf(x) {
						continue rhs // a superset cannot be minimal
					}
				}
				xa := x.Add(a)
				pxa, ok := parts[xa]
				if !ok {
					pxa = product(parts[x], parts[NewAttrSet(a)], n, sc)
					parts[xa] = pxa
				}
				if err := g3FromPartitions(parts[x], pxa, n, sc); err <= eps {
					record(x, a, err)
				}
			}
		}
		if size == maxLHS {
			break
		}
		// Next level: extend by one attribute; skip candidates that are
		// supersets of a found LHS for every possible RHS? LHS pruning
		// must stay RHS-specific, so we only dedupe here.
		next := map[AttrSet]bool{}
		for _, x := range level {
			for a := 0; a < m; a++ {
				if !x.Has(a) {
					next[x.Add(a)] = true
				}
			}
		}
		level = level[:0]
		for x := range next {
			if _, ok := parts[x]; !ok {
				// Build via any single-attribute split.
				a := x.Attrs()[0]
				parts[x] = product(parts[x.Remove(a)], parts[NewAttrSet(a)], n, sc)
			}
			level = append(level, x)
		}
		sort.Slice(level, func(i, j int) bool { return level[i] < level[j] })
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].FD.LHS != out[j].FD.LHS {
			return out[i].FD.LHS < out[j].FD.LHS
		}
		return out[i].FD.RHS < out[j].FD.RHS
	})
	return out, nil
}

// g3FromPartitions computes g3(X→A) = 1 − keep/n where keep is the
// number of tuples that can stay: for every equivalence class of Π_X,
// the size of its largest Π_{X∪A} subclass.
//
// With stripped partitions, singleton classes of Π_X always keep their
// tuple, and within a stripped class of Π_X the tuples outside every
// stripped subclass of Π_{X∪A} are singletons there (each keeps at most
// one representative... exactly one tuple can stay only if it is the
// majority; a singleton subclass contributes one candidate). The
// standard identity:
//
//	keep = n − size(Π_X) + Σ_{c ∈ Π_X} maxSubclass(c)
//
// where maxSubclass(c) is the largest Π_{X∪A} class inside c (at least
// 1, counting singletons).
// It shares the product kernel's stamped probe table and counting
// buckets (a nil scratch allocates a private one), so the per-candidate
// cost in MineApprox is two linear walks with no map traffic.
func g3FromPartitions(px, pxa *partition, n int, sc *prodScratch) float64 {
	if n == 0 {
		return 0
	}
	if sc == nil {
		sc = &prodScratch{}
	}
	sc.ensure(n)
	// Stamp each tuple with its stripped Π_{X∪A} class id (an unstamped
	// tuple is a singleton there).
	g := sc.nextGen()
	for ci, nc := 0, pxa.numClasses(); ci < nc; ci++ {
		for _, t := range pxa.class(ci) {
			sc.tClass[t] = int32(ci)
			sc.tGen[t] = g
		}
	}
	keep := n - px.size() // singletons of Π_X always stay
	for ai, na := 0, px.numClasses(); ai < na; ai++ {
		cg := sc.nextClassGen()
		best := int32(1) // a lone representative can always stay
		for _, t := range px.class(ai) {
			if sc.tGen[t] != g {
				continue // singleton in Π_{X∪A}
			}
			ci := sc.tClass[t]
			if sc.cGen[ci] != cg {
				sc.cGen[ci] = cg
				sc.cnt[ci] = 0
			}
			sc.cnt[ci]++
			if sc.cnt[ci] > best {
				best = sc.cnt[ci]
			}
		}
		keep += int(best)
	}
	g3 := 1 - float64(keep)/float64(n)
	if g3 < 0 {
		g3 = 0
	}
	return g3
}
