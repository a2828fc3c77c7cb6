package fd

import (
	"slices"

	"structmine/internal/exec"
	"structmine/internal/relation"
)

// groupBy is the one kernel over attribute sets: every question asked of
// a set X — the tuples sharing each projected row, X → Y, g3(X → Y),
// X ↠ Y — is asked of Π_X, built as TANE builds a lattice node: level-1
// partitions folded with refine through their class indexes. No value-id
// row is hashed. The level-1 partitions and class indexes are loaded on
// first use and kept; the partitions one question refines are carved
// from the scratch's arena, which every question resets, so a long run
// of questions (MineMVDsCtx) holds one question's worth.
type groupBy struct {
	c       relation.Columns
	n       int
	singles []*partition // level-1 partitions, by attribute
	idx     [][]int32    // their class indexes, carved from ar
	ar      *exec.Arena  // a pooled arena of the job in the miners
	sc      *prodScratch
}

func newGroupBy(c relation.Columns, ar *exec.Arena) *groupBy {
	return &groupBy{c: c, n: c.N(), singles: make([]*partition, c.M()), idx: make([][]int32, c.M()),
		ar: ar, sc: &prodScratch{ar: exec.NewArena()}}
}

// singlePartitionColumns builds Π_{A} from the value index: the index
// lists values in ascending id order with ascending tuple runs, which
// is exactly the class order and tuple order singlePartitionClasses
// emits, flattened directly into the arena layout
// (relation.StrippedPartition). A source that can serve cached
// partitions (relation.PartitionSource, e.g. a primcache wrapper) is
// probed first; its slices are shared read-only, which is safe because
// the miners only ever read level-1 partitions — the class index and
// every refinement are carved fresh from the job's arena.
func singlePartitionColumns(c relation.Columns, a int) (*partition, error) {
	var (
		elems, offs []int32
		err         error
	)
	if ps, ok := c.(relation.PartitionSource); ok {
		elems, offs, err = ps.SinglePartition(a)
	} else {
		elems, offs, err = relation.StrippedPartition(c, a)
	}
	if err != nil {
		return nil, err
	}
	return &partition{elems: elems, offs: offs}, nil
}

// load loads the attributes not loaded yet and starts a question: the
// partitions of the previous one are dropped.
func (k *groupBy) load(attrs []int) error {
	k.sc.ar.Reset()
	for _, a := range attrs {
		if k.idx[a] != nil {
			continue
		}
		p, err := singlePartitionColumns(k.c, a)
		if err != nil {
			return err
		}
		k.singles[a], k.idx[a] = p, classIndex(k.ar, p, k.n)
	}
	return nil
}

// partition returns Π_X for loaded attributes: the smallest of their
// level-1 partitions refined by the others, Π_∅ for none. Tuples ascend
// within every class, as they do in the level-1 partitions.
func (k *groupBy) partition(attrs []int) *partition {
	if len(attrs) == 0 {
		return emptyPartition(k.n)
	}
	first := 0
	for i, a := range attrs {
		if k.singles[a].size() < k.singles[attrs[first]].size() {
			first = i
		}
	}
	return k.refineBy(k.singles[attrs[first]], slices.Delete(slices.Clone(attrs), first, first+1))
}

// refineBy returns Π_{X∪Y} from Π_X and the loaded attributes of Y.
func (k *groupBy) refineBy(px *partition, attrs []int) *partition {
	for _, a := range attrs {
		if px.superkey() {
			break // nothing left to split
		}
		px = refine(px, k.idx[a], k.sc)
	}
	return px
}

// GroupBy groups the tuples of c by their projection on attrs: first[i]
// is the first tuple carrying the i-th distinct projected row and
// count[i] its multiplicity, in ascending first-tuple order (the order
// of first appearance).
func GroupBy(c relation.Columns, attrs []int) (first, count []int, err error) {
	k := newGroupBy(c, exec.NewArena())
	if err := k.load(attrs); err != nil {
		return nil, nil, err
	}
	p := k.partition(attrs)
	for t, ci := range classIndex(k.sc.ar, p, k.n) {
		switch {
		case ci < 0:
			first, count = append(first, t), append(count, 1)
		case p.class(int(ci))[0] == int32(t):
			first, count = append(first, t), append(count, len(p.class(int(ci))))
		}
	}
	return first, count, nil
}

// HoldsColumns reports whether X → Y holds, i.e. whether refining Π_X by
// Y splits no class: e(Π_X) = e(Π_{X∪Y}).
func HoldsColumns(c relation.Columns, f FD) (bool, error) {
	return newGroupBy(c, exec.NewArena()).holds(f)
}

func (k *groupBy) holds(f FD) (bool, error) {
	if err := k.load(f.Attrs().Attrs()); err != nil {
		return false, err
	}
	px := k.partition(f.LHS.Attrs())
	return k.refineBy(px, f.RHS.Minus(f.LHS).Attrs()).errVal() == px.errVal(), nil
}

// G3Columns returns the g3 approximation error of X → Y: the minimum
// fraction of tuples that must be removed for the dependency to hold
// (Huhtala et al.); zero means the FD holds exactly. It is g3Refine over
// Π_X and the class index of Π_Y, so a multi-attribute Y counts its
// value combinations.
func G3Columns(c relation.Columns, f FD) (float64, error) {
	k := newGroupBy(c, exec.NewArena())
	if k.n == 0 {
		return 0, nil
	}
	if err := k.load(f.Attrs().Attrs()); err != nil {
		return 0, err
	}
	py := k.partition(f.RHS.Attrs())
	return g3Refine(k.partition(f.LHS.Attrs()), classIndex(k.sc.ar, py, k.n), k.sc), nil
}

// mvdHolds reports whether X ↠ Y holds with Z = R − X − Y: every class c
// of Π_X must hold (distinct XY rows) × (distinct XZ rows) distinct rows.
// A refinement P of Π_X splits c into |c| − Σ (|k| − 1) distinct rows,
// the sum over the classes k of P inside c.
func (k *groupBy) mvdHolds(v MVD) (bool, error) {
	x := v.LHS
	y := v.RHS.Minus(x)
	z := FullSet(k.c.M()).Minus(x).Minus(y)
	if y.Empty() || z.Empty() {
		return true, nil // trivial MVD
	}
	if err := k.load(relation.AllAttrs(k.c)); err != nil {
		return false, err
	}
	px := k.partition(x.Attrs())
	in := classIndex(k.sc.ar, px, k.n)
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
	pxy := k.refineBy(px, y.Attrs())
	xy, xz, r := distinct(pxy), distinct(k.refineBy(px, z.Attrs())), distinct(k.refineBy(pxy, z.Attrs()))
	for ci := range r {
		if r[ci] != xy[ci]*xz[ci] {
			return false, nil
		}
	}
	return true, nil
}
