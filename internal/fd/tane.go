package fd

import (
	"context"
	"fmt"
	"math"
	"sort"

	"structmine/internal/exec"
	"structmine/internal/relation"
)

// TANE mines all minimal, non-trivial functional dependencies holding in
// the instance with the level-wise algorithm of Huhtala et al. (1999),
// using stripped partitions and the C+ (rhs-candidate) pruning rules.
// It scales to tens of thousands of tuples, unlike the pairwise FDEP.
//
// Partitions are stored flat (one []int32 of tuple ids plus class
// offsets) and products run through reusable per-worker probe tables, so
// a level's worth of products costs O(level) allocations instead of
// O(classes). Per-level products fan out across the budgeted workers
// above the TANEProduct cutoff (see internal/exec); the candidate list
// is materialized in sorted order first,
// so the result is independent of scheduling (and SortFDs canonicalizes
// the output order regardless). TANESerial is the retained reference
// implementation products are differentially tested against.
func TANE(r *relation.Relation) ([]FD, error) {
	return TANECtx(context.Background(), r)
}

// TANECtx is TANE under the context's worker budget and arena pool: the
// per-level product fan-out is sized by the context's grant (or fixed
// exec.WithWorkers budget), and partition storage is carved from pooled
// arenas checked out through the grant.
func TANECtx(ctx context.Context, r *relation.Relation) ([]FD, error) {
	return TANEColumnsCtx(ctx, relation.AsColumns(r))
}

// TANEColumnsCtx mines the minimal FDs over the column interface, under
// the context's worker budget and arena pool: level-1 partitions come
// straight from the value index and satisfaction checks stream page
// stripes, so the full row set is never resident. A resident relation
// mines through the same code behind relation.AsColumns — identical
// level-1 partitions feed the identical lattice walk.
func TANEColumnsCtx(ctx context.Context, c relation.Columns) ([]FD, error) {
	return (&tane{c: c}).mine(ctx)
}

// mine validates the instance shape and runs the level-wise walk.
func (t *tane) mine(ctx context.Context) ([]FD, error) {
	m, n := t.c.M(), t.c.N()
	if m > MaxAttrs {
		return nil, fmt.Errorf("fd: relation has %d attributes, max %d", m, MaxAttrs)
	}
	if n == 0 || m == 0 {
		return nil, nil
	}
	t.ctx, t.m, t.n = ctx, m, n
	t.full = FullSet(m)
	t.cache = map[cplusKey]bool{}
	t.run()
	if t.err != nil {
		return nil, t.err
	}
	SortFDs(t.out)
	return t.out, nil
}

// partition is a stripped partition: only equivalence classes with at
// least two tuples are kept, concatenated into one flat tuple-id slice.
// Class i is elems[offs[i]:offs[i+1]]; offs always carries the leading
// zero, so a partition with no stripped classes has offs == {0}. The
// flat layout is what makes the probe-table product allocation-free: a
// product walks two int32 slices and emits into one, with no per-class
// slice headers to chase or grow.
type partition struct {
	elems []int32 // tuple ids, class by class
	offs  []int32 // len = numClasses+1, offs[0] = 0
}

func (p *partition) numClasses() int {
	if len(p.offs) == 0 {
		return 0
	}
	return len(p.offs) - 1
}

// size is the total number of tuples across stripped classes.
func (p *partition) size() int { return len(p.elems) }

// class returns the i-th stripped class (a view into elems).
func (p *partition) class(i int) []int32 { return p.elems[p.offs[i]:p.offs[i+1]] }

// errVal is e(X) = (tuples in stripped classes) − (number of classes);
// X→A holds iff e(X) == e(X∪A).
func (p *partition) errVal() int { return p.size() - p.numClasses() }

// superkey reports whether the partition has only singleton classes.
func (p *partition) superkey() bool { return p.numClasses() == 0 }

// fromClasses flattens a slice-of-slices partition (the serial reference
// representation) into the arena layout.
func fromClasses(classes [][]int32) *partition {
	p := &partition{offs: make([]int32, 1, len(classes)+1)}
	total := 0
	for _, c := range classes {
		total += len(c)
	}
	p.elems = make([]int32, 0, total)
	for _, c := range classes {
		p.elems = append(p.elems, c...)
		p.offs = append(p.offs, int32(len(p.elems)))
	}
	return p
}

// emptyPartition is Π_∅: one class with all tuples (stripped keeps it
// when n ≥ 2).
func emptyPartition(n int) *partition {
	if n < 2 {
		return &partition{offs: []int32{0}}
	}
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	return &partition{elems: all, offs: []int32{0, int32(n)}}
}

// prodScratch is the reusable worker-private state behind product and
// g3FromPartitions: a tuple→class probe table and per-class counting
// buckets, both invalidated by generation stamps instead of O(n) clears,
// plus an accumulation buffer for the result and a slab arena the final
// exact-size copy is carved from. One scratch serves one goroutine; the
// tane driver keeps one per exec.ForChunk worker.
type prodScratch struct {
	n      int
	tClass []int32 // b-class of tuple t, valid iff tGen[t] == gen
	tGen   []int32
	gen    int32
	cnt    []int32 // tuples of the current a-class per b-class, valid iff cGen[bc] == cg
	pos    []int32 // emit cursor per b-class within the current a-class
	cGen   []int32
	cg     int32

	touched []int32 // b-class ids hit by the current a-class
	elems   []int32 // result accumulation, copied out exact-size
	offs    []int32

	ar *exec.Arena // arena the exact-size copies are carved from
}

func (sc *prodScratch) ensure(n int) {
	if sc.n >= n {
		return
	}
	sc.n = n
	sc.tClass = make([]int32, n)
	sc.tGen = make([]int32, n)
	mc := n/2 + 1 // every stripped class has ≥ 2 tuples
	sc.cnt = make([]int32, mc)
	sc.pos = make([]int32, mc)
	sc.cGen = make([]int32, mc)
	sc.gen, sc.cg = 0, 0
}

// nextGen bumps the probe-table generation, re-zeroing on the (in
// practice unreachable) int32 wraparound so stale stamps can never
// alias a live generation.
func (sc *prodScratch) nextGen() int32 {
	if sc.gen == math.MaxInt32 {
		for i := range sc.tGen {
			sc.tGen[i] = 0
		}
		sc.gen = 0
	}
	sc.gen++
	return sc.gen
}

func (sc *prodScratch) nextClassGen() int32 {
	if sc.cg == math.MaxInt32 {
		for i := range sc.cGen {
			sc.cGen[i] = 0
		}
		sc.cg = 0
	}
	sc.cg++
	return sc.cg
}

// carve copies src into a chunk of the scratch's arena, so the hundreds
// of partitions a level produces share a handful of backing
// allocations. Chunks are never freed individually; a level's partitions
// die together when the lattice moves two levels past them, releasing
// their slabs wholesale (pooled arenas return to the engine pool with
// the grant instead). A scratch without an arena — the public product
// entry point with a nil scratch — gets a private one.
func (sc *prodScratch) carve(src []int32) []int32 {
	if sc.ar == nil {
		sc.ar = exec.NewArena()
	}
	return sc.ar.AppendInt32s(src)
}

// product computes the stripped partition Π_{X∪Y} = Π_X · Π_Y with the
// probe-table algorithm (linear in the stripped sizes). It reproduces
// the serial reference productSerial exactly: within each class of a,
// subclasses are emitted in ascending b-class order (the insertion sort
// over the touched list replaces the reference's sorted map keys), and
// tuples keep their a-class order. A nil scratch allocates a private
// one — callers on a hot path pass a reused scratch and get zero
// steady-state allocations beyond the two result copies.
func product(a, b *partition, n int, sc *prodScratch) *partition {
	if sc == nil {
		sc = &prodScratch{}
	}
	sc.ensure(n)
	taneProducts.Inc()

	g := sc.nextGen()
	for ci, nc := 0, b.numClasses(); ci < nc; ci++ {
		for _, t := range b.class(ci) {
			sc.tClass[t] = int32(ci)
			sc.tGen[t] = g
		}
	}

	sc.elems = sc.elems[:0]
	sc.offs = append(sc.offs[:0], 0)
	for ai, na := 0, a.numClasses(); ai < na; ai++ {
		cls := a.class(ai)
		cg := sc.nextClassGen()
		sc.touched = sc.touched[:0]
		for _, t := range cls {
			if sc.tGen[t] != g {
				continue // singleton in b: can never join a class of ≥2
			}
			bc := sc.tClass[t]
			if sc.cGen[bc] != cg {
				sc.cGen[bc] = cg
				sc.cnt[bc] = 0
				sc.touched = append(sc.touched, bc)
			}
			sc.cnt[bc]++
		}
		// Ascending b-class order, as the reference emits. The touched
		// list is tiny (subclasses of one a-class); insertion sort beats
		// sort.Slice without allocating its closure.
		for i := 1; i < len(sc.touched); i++ {
			for j := i; j > 0 && sc.touched[j] < sc.touched[j-1]; j-- {
				sc.touched[j], sc.touched[j-1] = sc.touched[j-1], sc.touched[j]
			}
		}
		// Lay out the emit cursors, then place tuples in a second pass so
		// each subclass keeps its a-class tuple order.
		base := int32(len(sc.elems))
		total := int32(0)
		for _, bc := range sc.touched {
			if sc.cnt[bc] >= 2 {
				sc.pos[bc] = base + total
				total += sc.cnt[bc]
				sc.offs = append(sc.offs, base+total)
			} else {
				sc.pos[bc] = -1
			}
		}
		if total == 0 {
			continue
		}
		need := int(base + total)
		if cap(sc.elems) < need {
			grown := make([]int32, len(sc.elems), 2*need)
			copy(grown, sc.elems)
			sc.elems = grown
		}
		sc.elems = sc.elems[:need]
		for _, t := range cls {
			if sc.tGen[t] != g {
				continue
			}
			if p := sc.pos[sc.tClass[t]]; p >= 0 {
				sc.elems[p] = t
				sc.pos[sc.tClass[t]] = p + 1
			}
		}
	}
	return &partition{elems: sc.carve(sc.elems), offs: sc.carve(sc.offs)}
}

type levelNode struct {
	part  *partition
	cplus AttrSet
}

type tane struct {
	ctx  context.Context // carries the worker budget and arena pool
	m, n int
	full AttrSet
	out  []FD

	// c is the instance: level-1 stripped partitions come from its value
	// index (singlePartitionColumns) and the key-pruning fallback checks
	// satisfaction by stripe scans (HoldsColumns).
	c relation.Columns
	// serial, set only by TANESerial, is the resident relation of a
	// reference run: every product goes through productSerial, and
	// level-1 partitions and satisfaction checks read its rows
	// (singlePartitionClasses, Holds) instead of c's index — nothing
	// below the lattice walk is shared with the production path the
	// differential tests compare it against.
	serial *relation.Relation
	// err records the first data-access failure; the walk aborts and
	// mine surfaces it (resident reads never fail, paged reads can).
	err error

	cache map[cplusKey]bool

	scs []*prodScratch // one per ForChunk worker, grown on demand
}

type cplusKey struct {
	a int
	y AttrSet
}

// single builds the level-1 stripped partition of one attribute.
func (t *tane) single(a int) (*partition, error) {
	if t.serial != nil {
		return fromClasses(singlePartitionClasses(t.serial, a)), nil
	}
	return singlePartitionColumns(t.c, a)
}

// holds checks satisfaction directly (the key-pruning fallback).
func (t *tane) holds(f FD) (bool, error) {
	if t.serial != nil {
		return Holds(t.serial, f), nil
	}
	return HoldsColumns(t.c, f)
}

func (t *tane) scratch(w int) *prodScratch {
	for len(t.scs) <= w {
		// One arena per worker: carves stay single-goroutine while the
		// backing slabs are pooled (and recycled with the job's grant).
		t.scs = append(t.scs, &prodScratch{ar: exec.CheckoutArena(t.ctx)})
	}
	return t.scs[w]
}

// inCPlusByDef tests A ∈ C+(Y) from the definition
//
//	C+(Y) = { A ∈ R | ∀B ∈ Y: Y\{A,B} → B does not hold }
//
// with direct satisfaction checks. It is the fallback used by the
// key-pruning rule when a sibling set was itself pruned from the level,
// so its stored C+ is unavailable (treating it as empty would lose
// minimal FDs whose left-hand side is a key; see the regression tests).
func (t *tane) inCPlusByDef(a int, y AttrSet) bool {
	k := cplusKey{a, y}
	if v, ok := t.cache[k]; ok {
		return v
	}
	res := true
	for _, b := range y.Attrs() {
		lhs := y.Remove(a).Remove(b)
		ok, err := t.holds(FD{LHS: lhs, RHS: NewAttrSet(b)})
		if err != nil {
			if t.err == nil {
				t.err = err
			}
			return false // run aborts; the value is never used
		}
		if ok {
			res = false
			break
		}
	}
	t.cache[k] = res
	return res
}

func (t *tane) run() {
	// Level 0.
	prev := map[AttrSet]*levelNode{
		0: {part: emptyPartition(t.n), cplus: t.full},
	}
	// Level 1.
	cur := map[AttrSet]*levelNode{}
	for a := 0; a < t.m; a++ {
		part, err := t.single(a)
		if err != nil {
			t.err = err
			return
		}
		cur[NewAttrSet(a)] = &levelNode{part: part}
	}

	for len(cur) > 0 && t.err == nil {
		taneLevels.Inc()
		t.computeDependencies(cur, prev)
		t.prune(cur)
		next := t.generate(cur)
		prev = cur
		cur = next
	}
}

func (t *tane) computeDependencies(level, prev map[AttrSet]*levelNode) {
	for x, node := range level {
		cp := t.full
		for _, a := range x.Attrs() {
			sub, ok := prev[x.Remove(a)]
			if !ok {
				cp = 0
				break
			}
			cp = cp.Intersect(sub.cplus)
		}
		node.cplus = cp
	}
	for x, node := range level {
		for _, a := range x.Intersect(node.cplus).Attrs() {
			sub, ok := prev[x.Remove(a)]
			if !ok {
				continue
			}
			if sub.part.errVal() == node.part.errVal() {
				t.out = append(t.out, FD{LHS: x.Remove(a), RHS: NewAttrSet(a)})
				node.cplus = node.cplus.Remove(a)
				node.cplus = node.cplus.Minus(t.full.Minus(x))
			}
		}
	}
}

func (t *tane) prune(level map[AttrSet]*levelNode) {
	// Deletions are deferred so the key-pruning rule can still consult
	// the C+ sets of same-level nodes.
	var toDelete []AttrSet
	for x, node := range level {
		if node.cplus.Empty() {
			toDelete = append(toDelete, x)
			continue
		}
		if node.part.superkey() {
			for _, a := range node.cplus.Minus(x).Attrs() {
				// a ∈ ∩_{B∈X} C+(X ∪ {a} \ {B})
				inAll := true
				for _, b := range x.Attrs() {
					y := x.Add(a).Remove(b)
					if ynode, ok := level[y]; ok {
						if !ynode.cplus.Has(a) {
							inAll = false
							break
						}
					} else if !t.inCPlusByDef(a, y) {
						inAll = false
						break
					}
				}
				if inAll {
					t.out = append(t.out, FD{LHS: x, RHS: NewAttrSet(a)})
				}
			}
			toDelete = append(toDelete, x)
		}
	}
	for _, x := range toDelete {
		delete(level, x)
	}
}

// candidate is one prefix-join pair queued for a partition product. The
// list is built in sorted-key order before any product runs, so the
// parallel fan-out fills parts[i] slots deterministically regardless of
// scheduling.
type candidate struct {
	z, x, y AttrSet
}

func (t *tane) generate(level map[AttrSet]*levelNode) map[AttrSet]*levelNode {
	// Prefix join: sort sets; two sets combine when they share all but
	// their largest attribute.
	keys := make([]AttrSet, 0, len(level))
	for x := range level {
		keys = append(keys, x)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	var cands []candidate
	seen := map[AttrSet]bool{}
	work := 0
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			x, y := keys[i], keys[j]
			hx, hy := highest(x), highest(y)
			if x.Remove(hx) != y.Remove(hy) {
				continue
			}
			z := x.Union(y)
			if seen[z] {
				continue
			}
			// All |Z|-1 subsets must be present at the current level.
			ok := true
			for _, a := range z.Attrs() {
				if _, present := level[z.Remove(a)]; !present {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			seen[z] = true
			cands = append(cands, candidate{z, x, y})
			work += level[x].part.size() + level[y].part.size()
		}
	}

	next := make(map[AttrSet]*levelNode, len(cands))
	if len(cands) == 0 {
		return next
	}
	parts := make([]*partition, len(cands))
	switch {
	case t.serial != nil:
		for i, c := range cands {
			parts[i] = productSerial(level[c.x].part, level[c.y].part, t.n)
		}
	case exec.NumWorkers(t.ctx, exec.TANEProduct, len(cands), work) <= 1:
		sc := t.scratch(0)
		for i, c := range cands {
			parts[i] = product(level[c.x].part, level[c.y].part, t.n, sc)
		}
	default:
		t.scratch(exec.NumWorkers(t.ctx, exec.TANEProduct, len(cands), work) - 1)
		exec.ForChunk(t.ctx, exec.TANEProduct, len(cands), work, func(w, lo, hi int) {
			sc := t.scs[w]
			for i := lo; i < hi; i++ {
				parts[i] = product(level[cands[i].x].part, level[cands[i].y].part, t.n, sc)
			}
		})
	}
	for i, c := range cands {
		next[c.z] = &levelNode{part: parts[i]}
	}
	return next
}

func highest(s AttrSet) int {
	attrs := s.Attrs()
	return attrs[len(attrs)-1]
}
