package relation

import (
	"fmt"
	"sort"
	"sync"
)

// DefaultPageRows is the number of tuples per column page used when a
// page size is not dictated by an on-disk format. 4096 rows × 4 bytes
// keeps a page stripe (one page per attribute) well inside L2 for the
// schemas the paper studies while amortizing per-page overhead.
const DefaultPageRows = 4096

// Run is a maximal run of consecutive tuple indices [Start, Start+Len)
// in a value's posting list. Postings are stored run-length compressed:
// categorical columns cluster heavily, so runs are usually far shorter
// than the raw tuple lists in Stats.Tuples.
type Run struct {
	Start int32
	Len   int32
}

// Columns is the page-oriented read interface over a categorical
// relation. It is the out-of-core counterpart of *Relation: kernels that
// consume it see the same tuples, the same dense attribute-qualified
// value ids in the same first-appearance order, but only ever
// materialize one page stripe (one page per attribute) at a time.
//
// Two implementations exist: AsColumns wraps a resident *Relation, and
// colstore.Table reads the on-disk paged format. Kernels written
// against Columns must produce bit-identical results on both.
//
// Implementations must be safe for concurrent readers — ScanStripes
// fans pages across goroutines — provided each goroutine passes its own
// dst scratch.
type Columns interface {
	// Name returns the relation name.
	Name() string
	// N, M, D mirror Relation.N/M/D: tuples, attributes, distinct values.
	N() int
	M() int
	D() int
	// AttrNames returns the attribute names, len M. Callers must not
	// modify the returned slice.
	AttrNames() []string
	// PageRows returns the nominal rows per page; every page except the
	// last holds exactly PageRows tuples.
	PageRows() int
	// NumPages returns the page count, ceil(N / PageRows).
	NumPages() int
	// PageLen returns the number of tuples in page p.
	PageLen(p int) int
	// ReadStripe reads the pages of every attribute in attrs for stripe p
	// in one pass: out[i] holds the value ids of attrs[i], each of length
	// PageLen(p). dst is optional scratch (typically carved from an
	// exec.Arena): dst[i] backs out[i] when its capacity suffices,
	// otherwise a fresh slice sized for a full page is returned, so
	// passing the previous call's result as dst avoids all allocation.
	// The returned slices are only valid until the next ReadStripe call
	// on the same Columns with the same dst — mmap-backed
	// implementations may return memory that is revalidated or remapped
	// between calls. On-disk implementations fetch the whole stripe with
	// one contiguous read instead of len(attrs) seeks.
	ReadStripe(p int, attrs []int, dst [][]int32) ([][]int32, error)
	// VisitValues calls f once per distinct value of attribute a, in
	// ascending value-id order, with the value's tuple count and its
	// run-length-compressed posting list (runs ascending, disjoint).
	// The list is decoded into *runs, which is grown as needed and left
	// holding the grown buffer, so a caller that keeps one buffer per
	// worker decodes every pass without allocating; nil selects a
	// buffer of the call's own. f must not retain the list, and one
	// buffer must not serve two calls at once.
	VisitValues(a int, runs *[]Run, f func(v int32, count int, runs []Run) error) error
	// ValueAttr returns the attribute index a value id belongs to.
	ValueAttr(v int32) int
	// NullCount returns how many tuples hold NULL in attribute a.
	NullCount(a int) int
	// ValueStrings returns the dictionary, value id → string, len D.
	// Callers must not modify the returned slice. On-disk
	// implementations decode it on every call, so consumers fetch it
	// once per run, not per value.
	ValueStrings() ([]string, error)
	// Marginal returns attribute a's marginal (MarginalOfCounts over its
	// occurrence counts): a colstore table serves the one its validation
	// pass computed at Open, the resident adapter walks the value index.
	Marginal(a int) (AttrMarginal, error)
}

// AsColumns adapts a resident *Relation to the Columns interface with
// DefaultPageRows-sized pages. Per-value statistics are computed lazily
// on the first VisitValues/NullCount call and cached.
func AsColumns(r *Relation) Columns {
	return &residentColumns{r: r}
}

type residentColumns struct {
	r      *Relation
	stOnce sync.Once
	st     *Stats // lazy; built on first VisitValues/NullCount
}

func (c *residentColumns) Name() string        { return c.r.Name }
func (c *residentColumns) N() int              { return c.r.N() }
func (c *residentColumns) M() int              { return c.r.M() }
func (c *residentColumns) D() int              { return c.r.D() }
func (c *residentColumns) AttrNames() []string { return c.r.Attrs }
func (c *residentColumns) PageRows() int       { return DefaultPageRows }

func (c *residentColumns) NumPages() int {
	return (c.r.N() + DefaultPageRows - 1) / DefaultPageRows
}

func (c *residentColumns) PageLen(p int) int {
	if p < 0 || p >= c.NumPages() {
		return 0
	}
	if rem := c.r.N() - p*DefaultPageRows; rem < DefaultPageRows {
		return rem
	}
	return DefaultPageRows
}

func (c *residentColumns) ReadStripe(p int, attrs []int, dst [][]int32) ([][]int32, error) {
	rows := c.PageLen(p)
	if rows == 0 {
		return nil, fmt.Errorf("relation: page %d out of range (have %d pages)", p, c.NumPages())
	}
	for _, a := range attrs {
		if a < 0 || a >= c.r.M() {
			return nil, fmt.Errorf("relation: attribute %d out of range (have %d)", a, c.r.M())
		}
	}
	if len(dst) < len(attrs) {
		grown := make([][]int32, len(attrs))
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:len(attrs)]
	base := p * DefaultPageRows
	for i, a := range attrs {
		page := dst[i]
		if cap(page) < rows {
			// Right-size to the full nominal page so the same buffer is
			// reusable across every page (only the tail page is
			// shorter) — an exact-size allocation here would silently
			// reallocate on each longer page that follows.
			page = make([]int32, DefaultPageRows)
		}
		page = page[:rows]
		for j := range page {
			page[j] = c.r.rows[base+j][a]
		}
		dst[i] = page
	}
	return dst, nil
}

func (c *residentColumns) stats() *Stats {
	c.stOnce.Do(func() { c.st = c.r.Stats() })
	return c.st
}

func (c *residentColumns) VisitValues(a int, runs *[]Run, f func(v int32, count int, runs []Run) error) error {
	if a < 0 || a >= c.r.M() {
		return fmt.Errorf("relation: attribute %d out of range (have %d)", a, c.r.M())
	}
	st := c.stats()
	if runs == nil {
		runs = new([]Run)
	}
	for v := int32(0); v < int32(c.r.D()); v++ {
		if c.r.valueAttr[v] != a {
			continue
		}
		*runs = compressRuns((*runs)[:0], st.Tuples[v])
		if err := f(v, st.Count[v], *runs); err != nil {
			return err
		}
	}
	return nil
}

func (c *residentColumns) ValueAttr(v int32) int { return c.r.ValueAttr(v) }

func (c *residentColumns) ValueStrings() ([]string, error) { return c.r.valueStr, nil }

func (c *residentColumns) Marginal(a int) (AttrMarginal, error) { return ComputeAttrMarginal(c, a) }

func (c *residentColumns) NullCount(a int) int {
	id, ok := c.r.ValueID(a, Null)
	if !ok {
		return 0
	}
	return c.stats().Count[id]
}

// compressRuns appends the run-length compression of an ascending tuple
// list to dst.
func compressRuns(dst []Run, tuples []int32) []Run {
	for i := 0; i < len(tuples); {
		j := i + 1
		for j < len(tuples) && tuples[j] == tuples[j-1]+1 {
			j++
		}
		dst = append(dst, Run{Start: tuples[i], Len: int32(j - i)})
		i = j
	}
	return dst
}

// AllAttrs returns the attribute indices 0..M-1: the attrs argument of a
// scan over whole rows.
func AllAttrs(c Columns) []int {
	attrs := make([]int, c.M())
	for a := range attrs {
		attrs[a] = a
	}
	return attrs
}

// FetchRows returns the value-id rows of the given tuples, rows[i] for
// ts[i]. Each stripe that holds one of them is read once, whatever the
// order of ts, so fetching the members of many small groups costs one
// pass over the stripes they touch rather than a stripe read per tuple.
func FetchRows(c Columns, ts []int) ([][]int32, error) {
	m, pageRows := c.M(), c.PageRows()
	order := make([]int, len(ts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return ts[order[i]] < ts[order[j]] })
	attrs := AllAttrs(c)
	rows := make([][]int32, len(ts))
	cells := make([]int32, len(ts)*m)
	var cols [][]int32
	loaded := -1
	for _, i := range order {
		t := ts[i]
		if p := t / pageRows; p != loaded {
			got, err := c.ReadStripe(p, attrs, cols)
			if err != nil {
				return nil, err
			}
			cols, loaded = got, p
		}
		row := cells[i*m : (i+1)*m : (i+1)*m]
		for a := range row {
			row[a] = cols[a][t%pageRows]
		}
		rows[i] = row
	}
	return rows, nil
}

// ForEachRow streams the projection of c on attrs in tuple order, one
// page stripe resident at a time: fn receives the tuple index and its
// projected value ids, and returns false to stop the scan early. The
// row slice is reused between calls; fn must copy what it retains.
func ForEachRow(c Columns, attrs []int, fn func(t int, row []int32) bool) error {
	cols := make([][]int32, len(attrs))
	row := make([]int32, len(attrs))
	t := 0
	for p := 0; p < c.NumPages(); p++ {
		got, err := c.ReadStripe(p, attrs, cols)
		if err != nil {
			return err
		}
		cols = got
		for i, rows := 0, c.PageLen(p); i < rows; i++ {
			for j := range row {
				row[j] = cols[j][i]
			}
			if !fn(t, row) {
				return nil
			}
			t++
		}
	}
	return nil
}

// ProjectColumns builds the projection of c on attrs as a new in-memory
// relation, value ids re-interned: every tuple (bag semantics), or, when
// tuples is non-nil, only the tuples it lists, which must ascend.
func ProjectColumns(c Columns, attrs []int, name string, tuples []int) (*Relation, error) {
	strs, err := c.ValueStrings()
	if err != nil {
		return nil, err
	}
	names := make([]string, len(attrs))
	for i, a := range attrs {
		names[i] = c.AttrNames()[a]
	}
	b := NewBuilder(name, names)
	vals := make([]string, len(attrs))
	err = ForEachRow(c, attrs, func(t int, row []int32) bool {
		if tuples != nil {
			if len(tuples) == 0 {
				return false // every listed tuple is in
			}
			if tuples[0] != t {
				return true
			}
			tuples = tuples[1:]
		}
		for i, v := range row {
			vals[i] = strs[v]
		}
		if err := b.Add(vals); err != nil {
			panic(err) // schema is constructed to match
		}
		return true
	})
	return b.Relation(), err
}
