package limbo

import (
	"context"
	"math"

	"structmine/internal/exec"
	"structmine/internal/it"
)

// Assignment is the outcome of Phase 3 for one object.
type Assignment struct {
	Cluster int     // index into the representative list
	Loss    float64 // δI between the object and its representative
}

// AssignCtx performs Phase 3: each object is associated with the
// representative minimizing the information loss of merging them, the
// lowest index winning ties; Cluster is -1 and Loss +Inf when there are
// no representatives.
//
// δI(object, rep) is a base term in the two masses minus one term per
// coordinate the two supports share, so instead of probing every
// representative for every object the scan inverts the representatives'
// supports once (repIndex) and scores term-at-a-time: it walks the
// object's coordinates in ascending order and subtracts each posting's
// term from that representative's accumulator. Per representative these
// are deltaIObjRank's floating-point operations in its order, so the
// ranking is bit-identical to the pairwise scan (kept in serial.go as the
// test oracle) at the cost of the shared coordinates, not of objects ×
// representatives. A winner whose loss is near 0, where the difference
// form's rounding shows, reports DeltaIObj's ratio form (nearZero).
// Objects fan out under internal/exec's shared policy, sized by the
// context's worker budget.
func AssignCtx(ctx context.Context, reps []*DCF, objs []Obj) []Assignment {
	out := make([]Assignment, len(objs))
	ix := newRepIndex(reps)
	exec.For(ctx, exec.LIMBOAssign, len(objs), ix.work(objs), func(lo, hi int) {
		// Scoring state is per chunk — a worker runs a handful — so the
		// fan-out shares nothing it writes.
		sc := &assignScratch{
			acc:   make([]float64, len(reps)),
			stamp: make([]uint32, len(reps)),
			base:  make([]float64, len(ix.groupW)),
		}
		for oi := lo; oi < hi; oi++ {
			out[oi] = ix.closest(sc, objs[oi])
		}
		limboAssignObjects.Add(uint64(hi - lo))
		limboAssignTerms.Add(uint64(sc.terms))
	})
	return out
}

// repIndex is the inverted index of one Phase 3 call: for every
// coordinate some representative carries, the postings (rep, s₂,
// s₂·log₂s₂) in ascending rep order. One pass over both tiers of every
// DCF builds it in time and memory proportional to the postings; lists
// hang off a map, so nothing is sized by the largest coordinate id.
//
// A representative sharing no coordinate with an object scores exactly
// the base term, a function of the two masses alone (wlog is it.XLog2(W) by
// invariant, see Tree.Validate). Representatives are therefore grouped
// by bit-equal W, each group chained in ascending rep order, and a
// group's lowest-index untouched member stands for all of them.
type repIndex struct {
	reps              []*DCF
	lists             map[int32][]posting // by coordinate
	meanList          float64             // Σ len²/Σ len: postings a coordinate drawn from a rep meets
	group             []int32             // rep → W-group
	groupW, groupWlog []float64
	first             []int32 // group → its lowest rep
	next              []int32 // rep → next higher rep of its group, or -1
}

type posting struct {
	rep     int32
	s, slog float64
}

func newRepIndex(reps []*DCF) *repIndex {
	ix := &repIndex{
		reps:  reps,
		lists: make(map[int32][]posting),
		group: make([]int32, len(reps)), next: make([]int32, len(reps)),
	}
	// Reps are visited in ascending order and hold a coordinate once, so
	// every list ascends by rep.
	total, squares := 0, 0
	for ri, r := range reps {
		for i, c := range r.idx {
			ix.lists[c] = append(ix.lists[c], posting{int32(ri), r.val[i], r.vlog[i]})
		}
		for i, c := range r.tidx {
			ix.lists[c] = append(ix.lists[c], posting{int32(ri), r.tval[i], r.tvlog[i]})
		}
		total += r.SupportLen()
	}
	for _, l := range ix.lists {
		squares += len(l) * len(l)
	}
	ix.meanList = float64(squares) / math.Max(float64(total), 1)
	// W-groups, visited in descending order so each chain ascends.
	groupOf := make(map[uint64]int32)
	for ri := len(reps) - 1; ri >= 0; ri-- {
		r := reps[ri]
		g, ok := groupOf[math.Float64bits(r.W)]
		if !ok {
			g = int32(len(ix.first))
			groupOf[math.Float64bits(r.W)] = g
			ix.groupW, ix.groupWlog = append(ix.groupW, r.W), append(ix.groupWlog, r.wlog)
			ix.first = append(ix.first, -1)
		}
		ix.group[ri], ix.next[ri], ix.first[g] = g, ix.first[g], int32(ri)
	}
	return ix
}

// work estimates a call's cost in exec.LIMBOAssign units (posting
// terms): objects are what the representatives summarize, so each of
// their coordinates meets meanList postings; every object may also
// evaluate one base term per W-group.
func (ix *repIndex) work(objs []Obj) int {
	coords := 0
	for i := range objs {
		coords += len(objs[i].Cond)
	}
	return int(float64(coords)*ix.meanList) + len(objs)*len(ix.groupW)
}

// assignScratch is the scoring state reused across a chunk's objects:
// stamp[r] == gen marks acc[r] as the current object's, so nothing is
// cleared in between. base and s1log memoize pure functions of the
// object's mass and sum, which tuple and value objects repeat.
type assignScratch struct {
	acc       []float64 // running δI per touched rep
	stamp     []uint32
	gen       uint32
	touched   []int32
	terms     int       // postings scored so far
	base      []float64 // base term per W-group for an object of mass w1
	w1        float64
	s1, s1log float64 // the last object sum w·p and its it.XLog2
}

// closest scores one object against the index.
func (ix *repIndex) closest(sc *assignScratch, o Obj) Assignment {
	sc.gen++
	w1 := o.W
	if sc.gen == 1 || w1 != sc.w1 {
		sc.w1 = w1
		w1log := it.XLog2(w1)
		for g, w2 := range ix.groupW {
			sc.base[g] = it.XLog2(w1+w2) - w1log - ix.groupWlog[g]
		}
	}
	touched := sc.touched[:0]
	for _, e := range o.Cond {
		list := ix.lists[e.Idx]
		if len(list) == 0 {
			continue
		}
		s1 := w1 * e.P
		if s1 != sc.s1 {
			sc.s1, sc.s1log = s1, it.XLog2(s1)
		}
		s1log := sc.s1log
		sc.terms += len(list)
		for _, p := range list {
			if sc.stamp[p.rep] != sc.gen {
				sc.stamp[p.rep] = sc.gen
				sc.acc[p.rep] = sc.base[ix.group[p.rep]]
				touched = append(touched, p.rep)
			}
			sc.acc[p.rep] -= it.XLog2(s1+p.s) - s1log - p.slog
		}
	}
	sc.touched = touched

	// Argmin over (loss, index) — the pairwise scan's "first strict
	// minimum": NaN and +Inf never compare below the initial +Inf.
	best, bestDist := -1, math.Inf(1)
	consider := func(r int32, d float64) {
		if d < 0 { // numerical noise, clamped as deltaIObjRank does
			d = 0
		}
		if d < bestDist || (d == bestDist && int(r) < best) {
			best, bestDist = int(r), d
		}
	}
	for _, r := range touched {
		consider(r, sc.acc[r])
	}
	for g, d := range sc.base {
		if d > bestDist {
			continue // the whole group loses
		}
		r := ix.first[g]
		for r >= 0 && sc.stamp[r] == sc.gen {
			r = ix.next[r]
		}
		if r >= 0 {
			consider(r, d)
		}
	}
	if best >= 0 && nearZero(bestDist, sc.base[ix.group[best]]) {
		bestDist = ix.reps[best].DeltaIObj(o)
	}
	return Assignment{Cluster: best, Loss: bestDist}
}

// nearZero reports whether a winner's difference-form loss rank is a
// small fraction of its disjoint-support loss base — the largest δI two
// clusters of these masses can have. The difference form carries a few
// ulps of its largest term, up to W·log₂W, so there those ulps can be
// all of the loss: Phase 3 reports DeltaIObj's ratio form instead, ≈ 0
// between identical conditionals at any mass. Above, the two forms
// agree to those few ulps (TestDeltaIObjMatchesRankForm) and rank
// stands, which spares Phase 3 a second scan of most winners.
func nearZero(rank, base float64) bool { return rank <= base/1024 }
