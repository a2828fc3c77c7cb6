package fd

import (
	"context"
	"slices"

	"structmine/internal/exec"
	"structmine/internal/relation"
)

// Sets is a job's one kernel over attribute sets: every exact question
// the job asks of a set X — the tuples sharing each projected row, the
// class sizes of Π_X, X → Y, g3(X → Y), X ↠ Y — is asked of Π_X, built
// as TANE builds a lattice node: level-1 partitions folded with refine
// through their class indexes. No value-id row is hashed. The candidate
// keys ask one question, Π_R, and are read off the FDs the job mined.
//
// A job creates one Sets where it starts (task.RunColumns; a library
// entry point that is a job of its own creates its own) and passes it
// down; it dies with the job. The level-1 partitions and class indexes
// are loaded on first use and kept for the rest of the job, so each
// attribute is read at most once per job; TANE and the approximate
// miner start from the same ones. They and their class indexes are
// carved from an arena checked out of the job's grant
// (exec.CheckoutArena) at the first load — a job that asks nothing
// checks out nothing — unless a relation.PartitionSource serves the
// partitions from its own heap slices. A miner's first fan-out worker
// carves from the same arena (scratchPool), so a mine checks out no
// more arenas than it has workers. The partitions one
// question refines are carved from a private arena that every question
// resets, so a long run of questions (MineMVDsCtx) holds one question's
// worth. A Sets is not safe for concurrent use.
type Sets struct {
	ctx     context.Context // the job's: its grant lends ar
	c       relation.Columns
	n       int
	singles []*partition   // level-1 partitions, by attribute
	idx     [][]int32      // their class indexes, carved from ar
	ar      *exec.Arena    // nil until the first load
	sc      *prodScratch   // the current question's scratch
	runs    []relation.Run // the value-index decode buffer of every load
}

// NewSets returns the kernel of one job over c, with nothing loaded.
func NewSets(ctx context.Context, c relation.Columns) *Sets {
	return &Sets{ctx: ctx, c: c, n: c.N(), singles: make([]*partition, c.M()), idx: make([][]int32, c.M()),
		sc: &prodScratch{ar: exec.NewArena()}}
}

// arena returns the job arena, checking it out on first use.
func (s *Sets) arena() *exec.Arena {
	if s.ar == nil {
		s.ar = exec.CheckoutArena(s.ctx)
	}
	return s.ar
}

// scratchPool returns the fan-out scratch of a miner over s: its first
// worker carves from s's arena, beside the class indexes.
func (s *Sets) scratchPool(ctx context.Context) scratchPool {
	return scratchPool{ctx: ctx, scs: []*prodScratch{{ar: s.arena()}}}
}

// Columns returns the instance the kernel groups.
func (s *Sets) Columns() relation.Columns { return s.c }

// singlePartitionColumns builds Π_{A} from the value index: the index
// lists values in ascending id order with ascending tuple runs, which
// is exactly the class order and tuple order singlePartitionClasses
// emits, flattened directly into the arena layout
// (relation.StrippedPartition) inside two carves of ar. A source that
// can serve cached partitions (relation.PartitionSource, e.g. a
// primcache wrapper) is probed first; its heap slices are shared
// read-only, which is safe because the miners only ever read level-1
// partitions — the class index and every refinement are carved fresh
// from the job's arena.
func singlePartitionColumns(c relation.Columns, a int, ar *exec.Arena, runs *[]relation.Run) (*partition, error) {
	var (
		elems, offs []int32
		err         error
	)
	if ps, ok := c.(relation.PartitionSource); ok {
		elems, offs, err = ps.SinglePartition(a)
	} else {
		n := c.N()
		elems, offs, err = relation.StrippedPartition(c, a, ar.Int32s(n), ar.Int32s(n/2+1), runs)
	}
	if err != nil {
		return nil, err
	}
	return &partition{elems: elems, offs: offs}, nil
}

// load loads the attributes not loaded yet and starts a question: the
// partitions of the previous one are dropped.
func (s *Sets) load(attrs []int) error {
	s.sc.reset()
	for _, a := range attrs {
		if s.idx[a] != nil {
			continue
		}
		p, err := singlePartitionColumns(s.c, a, s.arena(), &s.runs)
		if err != nil {
			return err
		}
		s.singles[a], s.idx[a] = p, classIndex(s.arena(), p, s.n)
	}
	return nil
}

// partition returns Π_X for loaded attributes: the smallest of their
// level-1 partitions refined by the others, Π_∅ for none. Tuples ascend
// within every class, as they do in the level-1 partitions.
func (s *Sets) partition(attrs []int) *partition {
	if len(attrs) == 0 {
		return emptyPartition(s.sc.ar, s.n)
	}
	first := 0
	for i, a := range attrs {
		if s.singles[a].size() < s.singles[attrs[first]].size() {
			first = i
		}
	}
	return s.refineBy(s.singles[attrs[first]], slices.Delete(slices.Clone(attrs), first, first+1))
}

// refineBy returns Π_{X∪Y} from Π_X and the loaded attributes of Y.
func (s *Sets) refineBy(px *partition, attrs []int) *partition {
	for _, a := range attrs {
		if px.superkey() {
			break // nothing left to split
		}
		px = refine(px, s.idx[a], s.sc)
	}
	return px
}

// question loads attrs and returns Π_X.
func (s *Sets) question(attrs []int) (*partition, error) {
	if err := s.load(attrs); err != nil {
		return nil, err
	}
	return s.partition(attrs), nil
}

// GroupOf numbers the distinct rows of the projection on attrs in order
// of first appearance: of[t] is tuple t's group and k the number of
// groups. Over every attribute it is Π_R, the classes of identical
// tuples.
func (s *Sets) GroupOf(attrs []int) (of []int, k int, err error) {
	p, err := s.question(attrs)
	if err != nil {
		return nil, 0, err
	}
	of = make([]int, s.n)
	group := make([]int, p.numClasses()) // class → its group, set at its first tuple
	for t, ci := range classIndex(s.sc.ar, p, s.n) {
		switch {
		case ci < 0:
			of[t], k = k, k+1
		case p.class(int(ci))[0] == int32(t):
			group[ci], k = k, k+1
			fallthrough
		default:
			of[t] = group[ci]
		}
	}
	return of, k, nil
}

// GroupBy groups the tuples by their projection on attrs: first[i] is
// the first tuple carrying the i-th distinct projected row and count[i]
// its multiplicity, in ascending first-tuple order (the order of first
// appearance).
func (s *Sets) GroupBy(attrs []int) (first, count []int, err error) {
	of, k, err := s.GroupOf(attrs)
	if err != nil {
		return nil, nil, err
	}
	first, count = make([]int, k), make([]int, k)
	for t, g := range of {
		if count[g] == 0 {
			first[g] = t
		}
		count[g]++
	}
	return first, count, nil
}

// ClassSizes returns the multiplicities of the projected rows on attrs
// without walking the tuples: the sizes of Π_X's classes, in class
// order, and the number of rows that occur once (Π_X's singletons).
func (s *Sets) ClassSizes(attrs []int) (sizes []int, singletons int, err error) {
	p, err := s.question(attrs)
	if err != nil {
		return nil, 0, err
	}
	sizes = make([]int, p.numClasses())
	for ci := range sizes {
		sizes[ci] = int(p.offs[ci+1] - p.offs[ci])
	}
	return sizes, s.n - p.size(), nil
}

// Holds reports whether X → Y holds, i.e. whether refining Π_X by Y
// splits no class: e(Π_X) = e(Π_{X∪Y}).
func (s *Sets) Holds(f FD) (bool, error) {
	if err := s.load(f.Attrs().Attrs()); err != nil {
		return false, err
	}
	px := s.partition(f.LHS.Attrs())
	return s.refineBy(px, f.RHS.Minus(f.LHS).Attrs()).errVal() == px.errVal(), nil
}

// G3 returns the g3 approximation error of X → Y: the minimum fraction
// of tuples that must be removed for the dependency to hold (Huhtala et
// al.); zero means the FD holds exactly. It is g3Refine over Π_X and the
// class index of Π_Y, so a multi-attribute Y counts its value
// combinations.
func (s *Sets) G3(f FD) (float64, error) {
	if s.n == 0 {
		return 0, nil
	}
	if err := s.load(f.Attrs().Attrs()); err != nil {
		return 0, err
	}
	py := s.partition(f.RHS.Attrs())
	return g3Refine(s.partition(f.LHS.Attrs()), classIndex(s.sc.ar, py, s.n), s.sc), nil
}

// MVDHolds reports whether X ↠ Y holds with Z = R − X − Y: within every
// X-group, the projections on Y and on Z are independent, i.e. every
// class c of Π_X holds (distinct XY rows) × (distinct XZ rows) distinct
// rows. A refinement P of Π_X splits c into |c| − Σ (|k| − 1) distinct
// rows, the sum over the classes k of P inside c.
func (s *Sets) MVDHolds(v MVD) (bool, error) {
	x := v.LHS
	y := v.RHS.Minus(x)
	z := FullSet(s.c.M()).Minus(x).Minus(y)
	if y.Empty() || z.Empty() {
		return true, nil // trivial MVD
	}
	if err := s.load(relation.AllAttrs(s.c)); err != nil {
		return false, err
	}
	px := s.partition(x.Attrs())
	in := classIndex(s.sc.ar, px, s.n)
	distinct := func(p *partition) []int { // per class of Π_X
		d := make([]int, px.numClasses())
		for ci := range d {
			d[ci] = len(px.class(ci))
		}
		for ci, np := 0, p.numClasses(); ci < np; ci++ {
			d[in[p.class(ci)[0]]] -= len(p.class(ci)) - 1
		}
		return d
	}
	pxy := s.refineBy(px, y.Attrs())
	xy, xz, r := distinct(pxy), distinct(s.refineBy(px, z.Attrs())), distinct(s.refineBy(pxy, z.Attrs()))
	for ci := range r {
		if r[ci] != xy[ci]*xz[ci] {
			return false, nil
		}
	}
	return true, nil
}
