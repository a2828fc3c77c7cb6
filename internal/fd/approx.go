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

// MineApproxCtx is MineApproxColumns over a resident relation, on a
// kernel of its own.
func MineApproxCtx(ctx context.Context, r *relation.Relation, eps float64, maxLHS int) ([]ApproxFD, error) {
	return MineApproxColumns(ctx, NewSets(ctx, relation.AsColumns(r)), eps, maxLHS)
}

// MineApproxColumns returns all minimal approximate dependencies X → A
// with g3(X→A) ≤ eps, level-wise over the left-hand-side lattice with
// stripped partitions. Minimality is with respect to the approximate
// relation: no proper subset of X satisfies the error bound. Exact FDs
// (g3 = 0) are included with Err = 0.
//
// maxLHS bounds the left-hand-side size (0 means no bound). The miner is
// exponential in the worst case like any lattice search; the bound keeps
// interactive use cheap on wide relations. Each level's g3 evaluations,
// and the partitions of the next level's left-hand sides, fan out across
// the context's worker budget (one scratch and one arena per worker).
//
// The miner runs over the column interface: the level-1 partitions are
// the job's kernel's (Sets: from the value index or a
// relation.PartitionSource), so a paged table and a resident relation
// behind relation.AsColumns walk the same lattice to the same result.
//
// g3(X → a) is counted straight from Π_X and a's class index
// (g3Removed), so Π_{X∪a} is never formed just to be read once; the only
// partitions built are those of the left-hand sides themselves. Most
// candidates are rejected before their count is complete. Accepting
// X → a is a test on the removed-tuple count r = n·g3, and r ↦ g3 is
// monotone, so one threshold, limit, decides it: r < limit exactly when
// g3 ≤ ε. A walk stops as soon as its running count reaches limit, and a
// candidate whose count is bounded below by limit before any walk —
// r ≥ e(X) − e(X∪a) ≥ e(X) − e(X∖b∪a) for every b ∈ X, read off the
// partitions of the current level — is not walked at all. Every
// reported Err still comes from a complete walk.
//
// The (X, a) candidates of one level cannot prune each other — a found
// left-hand side only prunes strict supersets — so a level is evaluated
// in parallel into per-candidate slots and its finds are recorded
// afterwards in candidate order: the result is the same for any budget.
// The context is checked at every level boundary.
func MineApproxColumns(ctx context.Context, s *Sets, eps float64, maxLHS int) ([]ApproxFD, error) {
	c := s.Columns()
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
	limit := g3Limit(n, eps)
	pool := s.scratchPool(ctx)
	if err := s.load(relation.AllAttrs(c)); err != nil {
		return nil, err
	}
	singles, idx := s.singles, s.idx

	// found[a] lists the minimal satisfying LHSs discovered so far for
	// attribute a; candidates that contain one are pruned.
	found := make([][]AttrSet, m)
	var out []ApproxFD

	// One lattice level of left-hand sides and their partitions,
	// starting at ∅; pruning is RHS-specific, so a level always holds
	// every attribute set of its size; at holds each set's position.
	level, parts := []AttrSet{0}, []*partition{emptyPartition(s.arena(), n)}
	type pair struct{ x, a int } // level[x] with attribute a: a candidate x → a, or the extension x ∪ {a}
	for size := 0; ; size++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		at := make(map[AttrSet]int, len(level))
		for i, x := range level {
			at[x] = i
		}
		var cands []pair
		work, bounded := 0, 0
		for i, x := range level {
			for a := 0; a < m; a++ {
				if x.Has(a) || anySubsetOf(found[a], x) { // a superset cannot be minimal
					continue
				}
				if eBound(x, a, parts[i].errVal(), limit, parts, at) {
					bounded++
					continue
				}
				cands = append(cands, pair{i, a})
				work += parts[i].size()
			}
		}
		removed := make([]int, len(cands))
		pool.forEach(len(cands), work, func(sc *prodScratch, i int) {
			removed[i] = g3Removed(parts[cands[i].x], idx[cands[i].a], sc, limit)
		})
		cut := 0
		for i, cd := range cands {
			if removed[i] >= limit {
				cut++
				continue
			}
			found[cd.a] = append(found[cd.a], level[cd.x])
			out = append(out, ApproxFD{FD: FD{LHS: level[cd.x], RHS: NewAttrSet(cd.a)}, Err: g3Frac(removed[i], n)})
		}
		g3Walks.Add(uint64(len(cands)))
		g3Bounded.Add(uint64(bounded))
		g3Cut.Add(uint64(cut))
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

// g3Limit is the smallest removed-tuple count r < n the miner rejects:
// the first r at which g3Frac(r, n) ≤ ε fails (n when none does).
// g3Frac is monotone in r, so r < g3Limit(n, ε) exactly when
// g3Frac(r, n) ≤ ε — the float comparison itself, negation included, so
// a NaN ε accepts nothing.
func g3Limit(n int, eps float64) int {
	return sort.Search(n, func(r int) bool { return !(g3Frac(r, n) <= eps) })
}

// g3Frac is g3 = 1 − keep/n for removed = n − keep tuples.
func g3Frac(removed, n int) float64 { return 1 - float64(n-removed)/float64(n) }

// eBound reports whether X → a is rejected without a walk: the tuples
// g3Removed would count are at least e(X) − e(X∪a) (a class of Π_X that
// splits into k subclasses of Π_{X∪a} keeps only its largest one, so it
// loses at least k − 1 tuples, and e drops by exactly k − 1), and
// e(X∪a) ≤ e(Y) for each Y = X∖{b}∪{a}, whose partition X∪a refines.
// The Y are the other sets of X's level, so the bound costs |X| lookups.
func eBound(x AttrSet, a, ex, limit int, parts []*partition, at map[AttrSet]int) bool {
	for rest := x; rest != 0; rest &= rest - 1 {
		if ex-parts[at[x.Remove(lowest(rest)).Add(a)]].errVal() >= limit {
			return true
		}
	}
	return false
}

// g3Refine is g3(X→A) = 1 − keep/n from Π_X and A's class index, the
// exact count of g3Removed (whose limit n+1 no count reaches).
func g3Refine(px *partition, ia []int32, sc *prodScratch) float64 {
	return g3Frac(g3Removed(px, ia, sc, len(ia)+1), len(ia))
}

// g3Removed counts the tuples that must go for X → A to hold, from Π_X
// and A's class index: every equivalence class c of Π_X keeps only its
// largest Π_{X∪A} subclass, so
//
//	removed = Σ_{c ∈ Π_X} |c| − maxSubclass(c)
//
// with maxSubclass(c) ≥ 1 the largest count of c's tuples sharing an
// A-class (a tuple that is a singleton in Π_A is a subclass of one, and
// singleton classes of Π_X remove nothing). Π_{X∪A} itself is never
// formed: one walk of Π_X, counting in the scratch's per-class counts.
// The walk returns as soon as removed reaches limit, so a count ≥ limit
// is only a lower bound. It is the only g3 walk: g3Refine, G3Columns
// and the miner all count through it.
func g3Removed(px *partition, ia []int32, sc *prodScratch, limit int) int {
	sc.ensure(len(ia))
	removed := 0
	for ci, nc := 0, px.numClasses(); ci < nc; ci++ {
		cls := px.class(ci)
		// The pre-scan of refine: a class whose tuples share one a-class
		// keeps all of them, or one when that a-class is −1.
		a0, k := ia[cls[0]], 1
		for k < len(cls) && ia[cls[k]] == a0 {
			k++
		}
		best := int32(1) // a lone representative can always stay
		sc.touched = sc.touched[:0]
		if a0 >= 0 {
			best = int32(k)
			if k < len(cls) {
				sc.touched = append(sc.touched, a0)
				sc.cnt[a0] = best
			}
		}
		for _, t := range cls[k:] {
			ac := ia[t]
			if ac < 0 {
				continue // singleton in Π_A
			}
			if sc.cnt[ac] == 0 {
				sc.touched = append(sc.touched, ac)
			}
			sc.cnt[ac]++
			best = max(best, sc.cnt[ac])
		}
		for _, ac := range sc.touched {
			sc.cnt[ac] = 0
		}
		if removed += len(cls) - int(best); removed >= limit {
			return removed
		}
	}
	return removed
}
