package fd

import (
	"context"
	"fmt"
	"sort"

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

// MineApproxCtx returns all minimal approximate dependencies X → A with
// g3(X→A) ≤ eps, level-wise over the left-hand-side lattice with
// stripped partitions. Minimality is with respect to the approximate
// relation: no proper subset of X satisfies the error bound. Exact FDs
// (g3 = 0) are included with Err = 0.
//
// maxLHS bounds the left-hand-side size (0 means no bound). The miner is
// exponential in the worst case like any lattice search; the bound keeps
// interactive use cheap on wide relations. Each level's g3 evaluations,
// and the partitions of the next level's left-hand sides, fan out across
// the context's worker budget (one scratch and one arena per worker).
func MineApproxCtx(ctx context.Context, r *relation.Relation, eps float64, maxLHS int) ([]ApproxFD, error) {
	return MineApproxColumns(ctx, relation.AsColumns(r), eps, maxLHS)
}

// MineApproxColumns is the miner over the column interface: the level-1
// partitions come from the value index (or a relation.PartitionSource),
// so a paged table and a resident relation behind relation.AsColumns
// walk the same lattice to the same result.
//
// g3(X → a) is counted straight from Π_X and a's class index
// (g3Refine), so Π_{X∪a} is never formed just to be read once; the only
// partitions built are those of the left-hand sides themselves. The
// (X, a) candidates of one level cannot prune each other — a found
// left-hand side only prunes strict supersets — so a level is evaluated
// in parallel into per-candidate slots and its finds are recorded
// afterwards in candidate order: the result is the same for any budget.
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
	pool := &scratchPool{ctx: ctx}
	singles := make([]*partition, m)
	for a := range singles {
		p, err := singlePartitionColumns(c, a)
		if err != nil {
			return nil, err
		}
		singles[a] = p
	}
	idx := classIndexes(pool.grow(1)[0].ar, singles, n)

	// found[a] lists the minimal satisfying LHSs discovered so far for
	// attribute a; candidates that contain one are pruned.
	found := make([][]AttrSet, m)
	var out []ApproxFD

	// One lattice level of left-hand sides and their partitions,
	// starting at ∅; pruning is RHS-specific, so a level always holds
	// every attribute set of its size.
	level, parts := []AttrSet{0}, []*partition{emptyPartition(n)}
	type pair struct{ x, a int } // level[x] with attribute a: a candidate x → a, or the extension x ∪ {a}
	for size := 0; ; size++ {
		var cands []pair
		work := 0
		for i, x := range level {
			for a := 0; a < m; a++ {
				if !x.Has(a) && !anySubsetOf(found[a], x) { // a superset cannot be minimal
					cands = append(cands, pair{i, a})
					work += parts[i].size()
				}
			}
		}
		errs := make([]float64, len(cands))
		pool.forEach(len(cands), work, func(sc *prodScratch, i int) {
			errs[i] = g3Refine(parts[cands[i].x], idx[cands[i].a], sc)
		})
		for i, cd := range cands {
			if errs[i] <= eps {
				found[cd.a] = append(found[cd.a], level[cd.x])
				out = append(out, ApproxFD{FD: FD{LHS: level[cd.x], RHS: NewAttrSet(cd.a)}, Err: errs[i]})
			}
		}
		if size == maxLHS {
			break
		}
		if size == 0 {
			level, parts = make([]AttrSet, m), singles
			for a := range level {
				level[a] = NewAttrSet(a)
			}
			continue
		}
		// Next level: every set arises once, from the set without its
		// highest attribute, refined by that attribute.
		var exts []pair
		work = 0
		for i, x := range level {
			for a := highest(x) + 1; a < m; a++ {
				exts = append(exts, pair{i, a})
				work += 2 * parts[i].size()
			}
		}
		next, nextParts := make([]AttrSet, len(exts)), make([]*partition, len(exts))
		pool.forEach(len(exts), work, func(sc *prodScratch, i int) {
			next[i] = level[exts[i].x].Add(exts[i].a)
			nextParts[i] = refine(parts[exts[i].x], idx[exts[i].a], sc)
		})
		level, parts = next, nextParts
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].FD.LHS != out[j].FD.LHS {
			return out[i].FD.LHS < out[j].FD.LHS
		}
		return out[i].FD.RHS < out[j].FD.RHS
	})
	return out, nil
}

// g3Refine computes g3(X→A) = 1 − keep/n from Π_X and A's class index,
// where keep is the number of tuples that can stay: for every
// equivalence class of Π_X, the size of its largest Π_{X∪A} subclass.
// With stripped partitions, singleton classes of Π_X always keep their
// tuple, and inside a stripped class a tuple that is a singleton in Π_A
// is a subclass of one, so
//
//	keep = n − size(Π_X) + Σ_{c ∈ Π_X} maxSubclass(c)
//
// with maxSubclass(c) ≥ 1 the largest count of c's tuples sharing an
// A-class. Π_{X∪A} itself is never formed: one walk of Π_X, counting in
// the scratch's per-class slots.
func g3Refine(px *partition, ia []int32, sc *prodScratch) float64 {
	n := len(ia)
	sc.ensure(n)
	keep := n - px.size() // singletons of Π_X always stay
	for ci, nc := 0, px.numClasses(); ci < nc; ci++ {
		best := int32(1) // a lone representative can always stay
		sc.touched = sc.touched[:0]
		for _, t := range px.class(ci) {
			ac := ia[t]
			if ac < 0 {
				continue // singleton in Π_A
			}
			s := &sc.slots[ac]
			if s.cnt == 0 {
				sc.touched = append(sc.touched, ac)
			}
			s.cnt++
			if s.cnt > best {
				best = s.cnt
			}
		}
		for _, ac := range sc.touched {
			sc.slots[ac].cnt = 0
		}
		keep += int(best)
	}
	g3 := 1 - float64(keep)/float64(n)
	if g3 < 0 {
		g3 = 0
	}
	return g3
}
