package fd

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"structmine/internal/exec"
	"structmine/internal/relation"
)

// TANEColumnsCtx mines all minimal, non-trivial functional dependencies holding in
// the instance with the level-wise algorithm of Huhtala et al. (1999),
// using stripped partitions and the C+ (rhs-candidate) pruning rules.
// It scales to tens of thousands of tuples, unlike the pairwise FDEP.
//
// Partitions are stored flat (one []int32 of tuple ids plus class
// offsets). A lattice node's partition is never a two-partition
// product: it is either inherited from a parent an already-emitted FD
// proves equal, or a one-attribute refinement of its smallest parent
// through a per-attribute class index built once per mine (see
// generate); nodes without the attribute of most distinct values are
// refined over atoms, the distinct rows off it (see atoms). Refinements
// run on reusable per-worker scratch, so a level's worth costs O(level)
// allocations instead of O(classes), and fan out across the budgeted
// workers above the TANEProduct cutoff (see internal/exec); the job
// list is materialized in sorted order first, so the result is
// independent of scheduling (and SortFDs canonicalizes the output order
// regardless). TANESerial is the retained reference implementation the
// whole walk is differentially tested against.
//
// The walk runs over the column interface, under the context's worker
// budget and arena pool: the per-level refinement fan-out is sized by
// the context's grant (or fixed exec.WithWorkers budget), and the class
// index and partition storage are carved from pooled arenas checked out
// through the grant. Level-1 partitions are the job's kernel's (Sets,
// loaded from the value index unless s already holds them) and
// satisfaction checks ask s, so the full row set is never resident. A
// resident relation mines through the same code behind
// relation.AsColumns — identical level-1 partitions feed the identical
// lattice walk.
func TANEColumnsCtx(ctx context.Context, s *Sets) ([]FD, error) {
	return (&tane{c: s.Columns(), sets: s}).mine(ctx)
}

// DiscoverColumns mines all minimal, non-trivial FDs over the paged
// interface. It always takes the TANE branch — FDEP's pairwise
// difference sets want random row access — which is no loss: DiscoverCtx's
// two miners return identical FD sets, and the canonical SortFDs order
// makes the choice unobservable.
func DiscoverColumns(ctx context.Context, c relation.Columns) ([]FD, error) {
	return TANEColumnsCtx(ctx, NewSets(ctx, c))
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
	t.scratchPool, t.m, t.n = scratchPool{ctx: ctx}, m, n
	if t.sets != nil {
		t.scratchPool = t.sets.scratchPool(ctx)
	}
	t.full = FullSet(m)
	t.byRHS = make([][]AttrSet, m)
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
// flat layout is what makes a refinement allocation-free: it walks one
// int32 slice against a class index and emits into another, with no
// per-class slice headers to chase or grow.
//
// On the atom space (see tane.atoms) elems are atom ids — distinct rows
// of Π_{R∖{s}} — instead of tuple ids, and merged is the number of
// tuples the atoms fold away (n − #atoms), so errVal still reads the
// relation's own e(X). merged is 0 on tuples.
type partition struct {
	elems  []int32 // tuple (or atom) ids, class by class
	offs   []int32 // len = numClasses+1, offs[0] = 0
	merged int     // tuples folded into atoms; 0 on tuples
}

func (p *partition) numClasses() int {
	if len(p.offs) == 0 {
		return 0
	}
	return len(p.offs) - 1
}

// size is the total number of elements (tuples, or atoms) across
// stripped classes: what a refinement of p walks.
func (p *partition) size() int { return len(p.elems) }

// class returns the i-th stripped class (a view into elems).
func (p *partition) class(i int) []int32 { return p.elems[p.offs[i]:p.offs[i+1]] }

// errVal is e(X) = n − |π_X(r)| = merged + (elements in stripped
// classes) − (number of classes); X→A holds iff e(X) == e(X∪A).
func (p *partition) errVal() int { return p.merged + p.size() - p.numClasses() }

// superkey reports whether no two tuples agree on X.
func (p *partition) superkey() bool { return p.errVal() == 0 }

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

// emptyPartition is Π_∅, carved from ar: one class with all tuples
// (stripped keeps it when n ≥ 2).
func emptyPartition(ar *exec.Arena, n int) *partition {
	if n < 2 {
		return &partition{offs: []int32{0}}
	}
	all := ar.Int32s(n)[:n]
	for i := range all {
		all[i] = int32(i)
	}
	return &partition{elems: all, offs: []int32{0, int32(n)}}
}

// prodScratch is the reusable worker-private state behind refine and
// g3Refine: per class of the attribute being refined by, a count and an
// emit cursor, plus an accumulation buffer for the result and the arena
// the final exact-size copy is carved from. One scratch serves one
// goroutine; scratchPool keeps one per fan-out worker.
type prodScratch struct {
	// cnt[c] counts the current Π_X class's tuples in index class c. It
	// is zero between Π_X classes: each walk resets exactly the entries
	// it touched, so nothing is ever cleared in O(n). pos[c] is the emit
	// cursor of c's subclass, −1 when it stays a singleton.
	cnt, pos []int32
	touched  []int32 // index-class ids hit by the current Π_X class
	elems    []int32 // result accumulation, copied out exact-size
	offs     []int32

	// ar is the arena the scratch's buffers and the exact-size result
	// copies are carved from, so the hundreds of partitions a level
	// produces share a handful of backing slabs. Chunks are never freed
	// individually: the arena keeps its slabs until it dies (unpooled)
	// or until the grant's release rewinds it for the next job (pooled,
	// off the Go heap).
	ar *exec.Arena

	// The slice headers above are rewritten on every append; the pad keeps
	// two workers' scratches, which may be allocated side by side, off
	// one cache line.
	_ [64]byte
}

// ensure sizes the scratch for a class index over n tuples. Every
// stripped class has ≥ 2 tuples, so the index has at most n/2 classes
// (cnt, pos, touched) and a product at most n tuples in n/2 classes
// (elems, offs). All five are carves of the scratch's arena, so
// whoever resets it calls reset.
func (sc *prodScratch) ensure(n int) {
	if cap(sc.elems) < n {
		mc := n/2 + 1
		sc.cnt, sc.pos, sc.touched = sc.ar.Int32s(mc)[:mc], sc.ar.Int32s(mc)[:mc], sc.ar.Int32s(mc)
		clear(sc.cnt)
		sc.elems, sc.offs = sc.ar.Int32s(n), sc.ar.Int32s(mc)
	}
}

// reset rewinds the scratch's arena, dropping the buffers carved from it.
func (sc *prodScratch) reset() {
	sc.ar.Reset()
	sc.cnt, sc.pos, sc.touched, sc.elems, sc.offs = nil, nil, nil, nil, nil
}

// scratchPool keeps one prodScratch (with its own arena: carves stay
// single-goroutine while the backing slabs are pooled and recycled with
// the job's grant) per fan-out worker of one mining job.
type scratchPool struct {
	ctx context.Context // carries the worker budget and arena pool
	scs []*prodScratch
}

// grow returns the pool extended to at least k scratches. Not safe for
// concurrent use: forEach sizes the pool before it fans out.
func (p *scratchPool) grow(k int) []*prodScratch {
	for len(p.scs) < k {
		p.scs = append(p.scs, &prodScratch{ar: exec.CheckoutArena(p.ctx)})
	}
	return p.scs
}

// forEach runs fn(sc, i) for every i in [0, n) across the context's
// worker budget (TANEProduct kernel; work in its units), handing each
// call its worker's private scratch. The budget is read once: the pool
// is sized by the plan the loop then runs at. fn must write per-index
// slots only.
func (p *scratchPool) forEach(n, work int, fn func(sc *prodScratch, i int)) {
	plan := exec.Plan(p.ctx, exec.TANEProduct, n, work)
	scs := p.grow(plan.Workers())
	plan.ForChunk(func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(scs[w], i)
		}
	})
}

// classIndex is the class index of a partition of n tuples: ix[t] is
// the stripped class id of tuple t in p, −1 when t is a singleton there.
// A level-1 partition's index is the only thing a refinement reads of
// the attribute it refines by, so no two-partition product is ever
// formed. The n int32 are carved from ar — the partition itself
// (possibly a relation.PartitionSource's shared slices) is only read.
func classIndex(ar *exec.Arena, p *partition, n int) []int32 {
	ix := ar.Int32s(n)[:n]
	for t := range ix {
		ix[t] = -1
	}
	for ci, nc := 0, p.numClasses(); ci < nc; ci++ {
		for _, t := range p.class(ci) {
			ix[t] = int32(ci)
		}
	}
	return ix
}

// refine computes the stripped partition Π_{X∪{a}} = Π_X · Π_{a} by
// walking Π_X against a's class index ia — linear in Π_X's stripped
// size, whatever Π_{a} holds. It reproduces the serial reference
// productSerial(Π_X, Π_{a}) exactly: within each class of Π_X,
// subclasses are emitted in ascending a-class order and tuples keep
// their Π_X order. A class of 2 or 3 tuples yields at most one
// subclass, so it is split directly from its tuples' a-classes. A
// larger class is first scanned for its first tuple outside cls[0]'s
// a-class: most have none and are kept (or dropped, when that a-class
// is −1) as one block. The rest take the slot walk, seeded with the
// scanned prefix: count, keep the a-classes of ≥ 2 tuples, and emit a
// lone survivor in one filtering pass, several through sorted emit
// cursors. Steady state allocates nothing beyond the two result carves.
//
// ia may index atoms instead of tuples (tane.atoms): px's elements are
// then atom ids, and the result carries px's merged count.
func refine(px *partition, ia []int32, sc *prodScratch) *partition {
	sc.ensure(len(ia))
	taneProducts.Inc()
	taneProductElems.Add(uint64(px.size()))

	sc.elems = sc.elems[:0]
	sc.offs = append(sc.offs[:0], 0)
	for ci, nc := 0, px.numClasses(); ci < nc; ci++ {
		cls := px.class(ci)
		switch len(cls) {
		case 2:
			// a ≥ 0: two singletons of Π_{a} (both −1) share no class.
			if a := ia[cls[0]]; a >= 0 && a == ia[cls[1]] {
				sc.elems = append(sc.elems, cls[0], cls[1])
				sc.offs = append(sc.offs, int32(len(sc.elems)))
			}
			continue
		case 3:
			t0, t1, t2 := cls[0], cls[1], cls[2]
			a0, a1, a2 := ia[t0], ia[t1], ia[t2]
			switch {
			case a0 >= 0 && a0 == a1 && a0 == a2:
				sc.elems = append(sc.elems, t0, t1, t2)
			case a0 >= 0 && a0 == a1:
				sc.elems = append(sc.elems, t0, t1)
			case a0 >= 0 && a0 == a2:
				sc.elems = append(sc.elems, t0, t2)
			case a1 >= 0 && a1 == a2:
				sc.elems = append(sc.elems, t1, t2)
			default:
				continue
			}
			sc.offs = append(sc.offs, int32(len(sc.elems)))
			continue
		}
		// Most classes of ≥ 4 come out whole: scan for the first tuple
		// leaving cls[0]'s a-class before touching any count.
		a0, k := ia[cls[0]], 1
		for k < len(cls) && ia[cls[k]] == a0 {
			k++
		}
		if k == len(cls) {
			if a0 >= 0 { // else every tuple is a singleton in Π_{a}
				sc.elems = append(sc.elems, cls...)
				sc.offs = append(sc.offs, int32(len(sc.elems)))
			}
			continue
		}
		sc.touched = sc.touched[:0]
		if a0 >= 0 {
			sc.touched = append(sc.touched, a0)
			sc.cnt[a0] = int32(k)
		}
		for _, t := range cls[k:] {
			ac := ia[t]
			if ac < 0 {
				continue // singleton in Π_{a}: can never join a class of ≥ 2
			}
			if sc.cnt[ac] == 0 {
				sc.touched = append(sc.touched, ac)
			}
			sc.cnt[ac]++
		}
		// Keep the a-classes that survive as subclasses, resetting the
		// others' counts, and emit them in ascending a-class order, as the
		// reference does.
		live := sc.touched[:0]
		for _, ac := range sc.touched {
			if sc.cnt[ac] >= 2 {
				live = append(live, ac)
			} else {
				sc.cnt[ac], sc.pos[ac] = 0, -1
			}
		}
		switch len(live) {
		case 0:
			continue
		case 1:
			// The pre-scan found a tuple outside live[0], so it is a
			// proper subset of cls: filter it out in Π_X order.
			ac := live[0]
			sc.cnt[ac] = 0
			for _, t := range cls {
				if ia[t] == ac {
					sc.elems = append(sc.elems, t)
				}
			}
			sc.offs = append(sc.offs, int32(len(sc.elems)))
			continue
		}
		slices.Sort(live)
		// Lay out the emit cursors (zeroing the counts for the next class),
		// then place tuples in a second pass so each subclass keeps its
		// Π_X tuple order.
		base := int32(len(sc.elems))
		total := int32(0)
		for _, ac := range live {
			sc.pos[ac] = base + total
			total += sc.cnt[ac]
			sc.offs = append(sc.offs, base+total)
			sc.cnt[ac] = 0
		}
		sc.elems = sc.elems[:base+total]
		for _, t := range cls {
			if ac := ia[t]; ac >= 0 {
				if p := sc.pos[ac]; p >= 0 {
					sc.elems[p] = t
					sc.pos[ac] = p + 1
				}
			}
		}
	}
	return &partition{elems: sc.ar.AppendInt32s(sc.elems), offs: sc.ar.AppendInt32s(sc.offs), merged: px.merged}
}

type levelNode struct {
	part  *partition
	cplus AttrSet
}

type tane struct {
	scratchPool // ctx, and one scratch per fan-out worker
	m, n        int
	full        AttrSet
	out         []FD
	// byRHS[a] lists the left-hand sides of the FDs emitted so far with
	// right-hand side a — what generate consults to share partitions.
	byRHS [][]AttrSet

	// c is the instance. sets is the job's kernel over it: its level-1
	// partitions (from the value index) and the per-attribute class index
	// every refinement on tuples reads; the key-pruning fallback asks it whether a
	// dependency holds (Sets.Holds). sets is nil in a reference run.
	c    relation.Columns
	sets *Sets
	// serial, set only by TANESerial, is the resident relation of a
	// reference run: every node's partition is a productSerial of its two
	// prefix-join parents (no class index, no sharing), and level-1
	// partitions and satisfaction checks read its rows
	// (singlePartitionClasses, Holds) instead of c's index — nothing
	// below the lattice walk is shared with the production path the
	// differential tests compare it against.
	serial *relation.Relation
	// s is the attribute left on tuples when the lattice nodes without
	// it walk atoms, −1 when every node walks tuples; aidx[a] (a ≠ s) is
	// a's class index over atoms. See atoms.
	s    int
	aidx [][]int32
	// err records the first data-access failure; the walk aborts and
	// mine surfaces it (resident reads never fail, paged reads can).
	err error

	cache map[cplusKey]bool
	// generate's level keys and job list, reused level to level.
	keys []AttrSet
	jobs []refineJob
}

type cplusKey struct {
	a int
	y AttrSet
}

// holds checks satisfaction directly (the key-pruning fallback).
func (t *tane) holds(f FD) (bool, error) {
	if t.serial != nil {
		return Holds(t.serial, f), nil
	}
	return t.sets.Holds(f)
}

// emit records the minimal dependency lhs → a.
func (t *tane) emit(lhs AttrSet, a int) {
	t.out = append(t.out, FD{LHS: lhs, RHS: NewAttrSet(a)})
	t.byRHS[a] = append(t.byRHS[a], lhs)
}

// highest returns the largest member of a non-empty set.
func highest(s AttrSet) int { return bits.Len64(uint64(s)) - 1 }

// lowest returns the smallest member of a non-empty set; with
// rest &= rest − 1 it walks a set without materializing Attrs().
func lowest(s AttrSet) int { return bits.TrailingZeros64(uint64(s)) }

// anySubsetOf reports whether some set of the list is a subset of x.
func anySubsetOf(sets []AttrSet, x AttrSet) bool {
	for _, s := range sets {
		if s.SubsetOf(x) {
			return true
		}
	}
	return false
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
	for rest := y; rest != 0; rest &= rest - 1 {
		b := lowest(rest)
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
		0: {part: emptyPartition(t.grow(1)[0].ar, t.n), cplus: t.full},
	}
	// Level 1.
	t.s = -1
	var singles []*partition
	if t.serial == nil {
		if t.err = t.sets.load(relation.AllAttrs(t.c)); t.err != nil {
			return
		}
		singles = t.atoms()
	}
	cur := map[AttrSet]*levelNode{}
	for a := 0; a < t.m; a++ {
		if t.serial != nil {
			cur[NewAttrSet(a)] = &levelNode{part: fromClasses(singlePartitionClasses(t.serial, a))}
		} else {
			cur[NewAttrSet(a)] = &levelNode{part: singles[a]}
		}
	}

	for len(cur) > 0 && t.err == nil {
		if t.err = t.ctx.Err(); t.err != nil {
			return
		}
		taneLevels.Inc()
		t.computeDependencies(cur, prev)
		t.prune(cur)
		next := t.generate(cur)
		prev = cur
		cur = next
	}
}

// atoms returns the level-1 partitions the walk starts from. When some
// two tuples agree on R∖{s}, where s is the attribute with the most
// distinct values (the smallest e(Π_a), ties to the lowest index), it
// numbers the distinct rows of Π_{R∖{s}} as atoms — its stripped
// classes in class order, then its singleton tuples in ascending order
// — and every attribute a ≠ s gets Π_a and a class index (aidx[a]) over
// atoms, derived from the Sets' own: no X ⊆ R∖{s} can split an atom,
// so each atom lies inside one class of Π_a and the atom partition of
// X has the relation's |π_X(r)| classes, singletons included. The
// lattice nodes without s then walk atoms (generate), their partitions
// carrying merged = n − #atoms so errVal reads e(X) unchanged; s and
// the nodes containing it stay on tuples. With m < 3, or no two tuples
// agreeing off s, the tuple partitions are returned as they are and s
// stays −1. Π_{R∖{s}} costs m − 2 refinements of the worker-0 scratch,
// which also holds the atom partitions and indexes for the whole mine.
func (t *tane) atoms() []*partition {
	singles := t.sets.singles
	if t.m < 3 {
		return singles
	}
	s, first := 0, -1
	for a := 1; a < t.m; a++ {
		if singles[a].errVal() < singles[s].errVal() {
			s = a
		}
	}
	for a := range singles {
		if a != s && (first < 0 || singles[a].size() < singles[first].size()) {
			first = a
		}
	}
	sc := t.grow(1)[0]
	px := singles[first]
	for a := range singles {
		if a != s && a != first && !px.superkey() {
			px = refine(px, t.sets.idx[a], sc)
		}
	}
	if px.superkey() {
		return singles
	}
	// atom[u] is tuple u's atom: its Π_{R∖{s}} class, or a number of
	// its own after the classes.
	atom := classIndex(sc.ar, px, t.n)
	na := int32(px.numClasses())
	for u, at := range atom {
		if at < 0 {
			atom[u], na = na, na+1
		}
	}
	merged := px.errVal()
	out := make([]*partition, t.m)
	out[s] = singles[s]
	t.s, t.aidx = s, make([][]int32, t.m)
	sc.ensure(t.n)
	for a, p := range singles {
		if a == s {
			continue
		}
		// One pass over Π_a: an atom joins its a-class at its first
		// tuple, and a class that gathers a single atom is dropped.
		ix := sc.ar.Int32s(int(na))[:na]
		for i := range ix {
			ix[i] = -1
		}
		sc.elems, sc.offs = sc.elems[:0], append(sc.offs[:0], 0)
		for ci, nc := 0, p.numClasses(); ci < nc; ci++ {
			start, id := len(sc.elems), int32(len(sc.offs)-1)
			for _, u := range p.class(ci) {
				if at := atom[u]; ix[at] < 0 {
					ix[at] = id
					sc.elems = append(sc.elems, at)
				}
			}
			if len(sc.elems)-start < 2 {
				ix[sc.elems[start]] = -1
				sc.elems = sc.elems[:start]
				continue
			}
			sc.offs = append(sc.offs, int32(len(sc.elems)))
		}
		out[a] = &partition{elems: sc.ar.AppendInt32s(sc.elems), offs: sc.ar.AppendInt32s(sc.offs), merged: merged}
		t.aidx[a] = ix
	}
	return out
}

func (t *tane) computeDependencies(level, prev map[AttrSet]*levelNode) {
	for x, node := range level {
		cp := t.full
		for rest := x; rest != 0; rest &= rest - 1 {
			sub, ok := prev[x.Remove(lowest(rest))]
			if !ok {
				cp = 0
				break
			}
			cp = cp.Intersect(sub.cplus)
		}
		node.cplus = cp
	}
	for x, node := range level {
		for rest := x.Intersect(node.cplus); rest != 0; rest &= rest - 1 {
			a := lowest(rest)
			sub, ok := prev[x.Remove(a)]
			if !ok {
				continue
			}
			if sub.part.errVal() == node.part.errVal() {
				t.emit(x.Remove(a), a)
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
			for rest := node.cplus.Minus(x); rest != 0; rest &= rest - 1 {
				a := lowest(rest)
				// a ∈ ∩_{B∈X} C+(X ∪ {a} \ {B})
				inAll := true
				for xs := x; xs != 0 && inAll; xs &= xs - 1 {
					y := x.Add(a).Remove(lowest(xs))
					if ynode, ok := level[y]; ok {
						inAll = ynode.cplus.Has(a)
					} else {
						inAll = t.inCPlusByDef(a, y)
					}
				}
				if inAll {
					t.emit(x, a)
				}
			}
			toDelete = append(toDelete, x)
		}
	}
	for _, x := range toDelete {
		delete(level, x)
	}
}

// refineJob is one next-level node whose partition has to be computed:
// walk part against idx[attr]. The list is built serially, in sorted
// order, before any refinement runs, and each job writes only its own
// node, so the parallel fan-out is deterministic regardless of
// scheduling.
type refineJob struct {
	node *levelNode
	part *partition
	idx  []int32 // the refining attribute's class index (tuples or atoms)
}

// generate forms the next level by prefix join — two sets combine when
// they share all but their highest attribute — keeping a candidate Z
// only when all its |Z|−1 subsets survive at the current level. Sorting
// by (prefix, set) makes every bucket of joinable sets contiguous, and
// each Z arises from exactly one pair (the two sets missing one of its
// two highest attributes), so no pair loop over the whole level and no
// dedup are needed.
//
// Every surviving parent Z \ {b} is a valid way to Π_Z (Π_Z =
// Π_{Z\{b}} · Π_{b}), and all of them are at hand from the subset
// check, so the node takes the cheapest:
//
//   - share: if an FD W → b with W ⊆ Z \ {b} has already been emitted,
//     it holds in the instance, so refining Π_{Z\{b}} by b splits
//     nothing: Π_Z is Π_{Z\{b}} element for element and the node takes
//     that pointer — no product runs. The level-wise walk has emitted
//     every minimal FD with a left-hand side smaller than |Z|−1 by now,
//     so this catches every Z \ {b} → b that holds non-minimally; only
//     the still-unknown minimal ones (found by the next
//     computeDependencies, which needs the real partition) are refined.
//   - refine: otherwise walk the smallest parent against the removed
//     attribute's class index. Ties go to the parent missing the higher
//     attribute, so a node's partition is a pure function of the input.
//
// A node without s walks atoms: its parents all do, and the index is
// the atom one (aidx). A node with s stays on tuples, so its parent
// Z∖{s}, an atom partition, is neither shared nor walked.
func (t *tane) generate(level map[AttrSet]*levelNode) map[AttrSet]*levelNode {
	prefix := func(x AttrSet) AttrSet { return x.Remove(highest(x)) }
	keys := t.keys[:0]
	for x := range level {
		keys = append(keys, x)
	}
	t.keys = keys
	sort.Slice(keys, func(i, j int) bool {
		if pi, pj := prefix(keys[i]), prefix(keys[j]); pi != pj {
			return pi < pj
		}
		return keys[i] < keys[j]
	})

	bucketEnd := func(lo int) int {
		hi := lo + 1
		for hi < len(keys) && prefix(keys[hi]) == prefix(keys[lo]) {
			hi++
		}
		return hi
	}
	// Every pair inside a bucket bounds the next level's size, so the
	// nodes are allocated once and no pointer into them moves.
	pairs := 0
	for lo, hi := 0, 0; lo < len(keys); lo = hi {
		hi = bucketEnd(lo)
		pairs += (hi - lo) * (hi - lo - 1) / 2
	}
	next := make(map[AttrSet]*levelNode, pairs)
	nodes := make([]levelNode, 0, pairs)
	jobs := t.jobs[:0]
	work := 0
	for lo, hi := 0, 0; lo < len(keys); lo = hi {
		hi = bucketEnd(lo)
		for i := lo; i < hi; i++ {
			for j := i + 1; j < hi; j++ {
				x, y := keys[i], keys[j]
				z := x.Union(y)
				var shared, walk *partition
				attr := -1
				complete := true
				for rest := z; rest != 0; {
					b := highest(rest)
					rest = rest.Remove(b)
					sub, ok := level[z.Remove(b)]
					if !ok {
						complete = false
						break
					}
					if b == t.s {
						continue
					}
					if shared == nil && anySubsetOf(t.byRHS[b], z) {
						shared = sub.part
					}
					if walk == nil || sub.part.size() < walk.size() {
						walk, attr = sub.part, b
					}
				}
				if !complete {
					continue
				}
				nodes = append(nodes, levelNode{})
				node := &nodes[len(nodes)-1]
				next[z] = node
				switch {
				case t.serial != nil:
					node.part = productSerial(level[x].part, level[y].part, t.n)
				case shared != nil:
					node.part = shared
					taneShared.Inc()
				default:
					idx := t.sets.idx
					if t.s >= 0 && !z.Has(t.s) {
						idx = t.aidx
					}
					jobs = append(jobs, refineJob{node, walk, idx[attr]})
					work += 2 * walk.size()
				}
			}
		}
	}
	t.forEach(len(jobs), work, func(sc *prodScratch, i int) {
		jobs[i].node.part = refine(jobs[i].part, jobs[i].idx, sc)
	})
	t.jobs = jobs
	return next
}
