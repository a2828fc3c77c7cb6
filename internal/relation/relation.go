// Package relation implements the categorical relational model the paper
// operates on: a set T of n tuples over m attributes A1..Am, where the
// domain of each attribute is a finite set of uninterpreted values.
//
// Values are attribute-qualified: the string "Boston" under attribute City
// and the string "Boston" under attribute DepName are distinct values.
// Each distinct (attribute, string) pair receives a dense global value id
// in [0, d), matching the paper's set V = V1 ∪ ... ∪ Vm with |V| = d.
//
// NULL is modeled as an ordinary per-attribute value (see DESIGN.md): the
// integration anomalies studied in the paper's DBLP experiments arise
// precisely because co-occurring NULLs correlate attributes.
package relation

import (
	"fmt"
	"slices"
)

// Null is the canonical representation of a missing value.
const Null = "NULL"

// Relation is an immutable categorical relation instance.
type Relation struct {
	Name  string
	Attrs []string // attribute names, len m

	// rows[t][a] is the global value id of tuple t at attribute a.
	rows [][]int32

	// valueStr[id] is the string of value id; valueAttr[id] its attribute.
	valueStr  []string
	valueAttr []int

	// dict[a][s] is the value id of string s under attribute a. A
	// relation made by Extend shares its receiver's dict — read-only for
	// both from then on — and interns what it adds into over, its private
	// overlay; over is nil for a relation that was parsed or built.
	dict []map[string]int32
	over []map[string]int32
}

// Builder accumulates tuples for a Relation.
type Builder struct {
	r    *Relation
	from int     // rows the relation held when the builder started
	slab []int32 // the unused rest of the slab rows are carved from
}

// slabRows caps the rows of one slab.
const slabRows = 4096

// NewBuilder starts a relation with the given attribute names.
func NewBuilder(name string, attrs []string) *Builder {
	r := &Relation{
		Name:  name,
		Attrs: append([]string(nil), attrs...),
		dict:  make([]map[string]int32, len(attrs)),
	}
	for i := range r.dict {
		r.dict[i] = map[string]int32{}
	}
	return &Builder{r: r}
}

// Add appends one tuple given as strings, one per attribute. Empty strings
// are stored as Null.
func (b *Builder) Add(vals []string) error {
	if len(vals) != len(b.r.Attrs) {
		return fmt.Errorf("relation: tuple has %d values, schema has %d attributes", len(vals), len(b.r.Attrs))
	}
	row := b.row()
	for a, s := range vals {
		if s == "" {
			s = Null
		}
		row[a] = b.r.intern(a, s)
	}
	return nil
}

// addRecord is Add for a scanned record, whose length the scan checked:
// encoding/csv's strings, or fields of a quote-free body. A field is
// looked up without allocating, so only a new value's string is
// allocated and no string pins the body.
func (b *Builder) addRecord(fields [][]byte, strs []string) {
	if strs != nil {
		b.Add(strs)
		return
	}
	row := b.row()
	for a, f := range fields {
		if len(f) == 0 {
			row[a] = b.r.intern(a, Null)
		} else {
			row[a] = b.r.internBytes(a, f)
		}
	}
}

// row appends a row to the relation and returns it to be filled. Rows
// are carved from a slab as large as the rows added so far (at most
// slabRows), so a bulk parse makes a few dozen allocations and a
// one-row Extend one row's. A full row table grows by at least the rows
// added so far too: a parse doubles it, where append would grow a large
// one by a quarter and copy it more often.
func (b *Builder) row() []int32 {
	m := len(b.r.Attrs)
	if len(b.slab) < m || b.slab == nil { // nil: with m = 0 a row is empty, not nil
		b.slab = make([]int32, m*min(max(len(b.r.rows)-b.from, 1), slabRows))
	}
	row := b.slab[:m:m]
	b.slab = b.slab[m:]
	if len(b.r.rows) == cap(b.r.rows) {
		b.r.rows = slices.Grow(b.r.rows, len(b.r.rows)-b.from)
	}
	b.r.rows = append(b.r.rows, row)
	return row
}

// MustAdd is Add that panics on schema mismatch; for generators and tests.
func (b *Builder) MustAdd(vals ...string) {
	if err := b.Add(vals); err != nil {
		panic(err)
	}
}

// Relation finalizes and returns the built relation. The builder may keep
// being used; later Adds extend the same relation.
func (b *Builder) Relation() *Relation { return b.r }

func (r *Relation) intern(attr int, s string) int32 {
	if id, ok := r.ValueID(attr, s); ok {
		return id
	}
	return r.add(attr, s)
}

// internBytes is intern for a field's bytes. Indexing a map with
// string(f) does not allocate.
func (r *Relation) internBytes(attr int, f []byte) int32 {
	if id, ok := r.dict[attr][string(f)]; ok {
		return id
	}
	if r.over != nil {
		if id, ok := r.over[attr][string(f)]; ok {
			return id
		}
	}
	return r.add(attr, string(f))
}

// add interns s as attribute attr's next value.
func (r *Relation) add(attr int, s string) int32 {
	id := int32(len(r.valueStr))
	if r.over != nil {
		r.over[attr][s] = id
	} else {
		r.dict[attr][s] = id
	}
	r.valueStr = append(r.valueStr, s)
	r.valueAttr = append(r.valueAttr, attr)
	return id
}

// N returns the number of tuples n.
func (r *Relation) N() int { return len(r.rows) }

// M returns the number of attributes m.
func (r *Relation) M() int { return len(r.Attrs) }

// D returns the total number of distinct attribute-qualified values d.
func (r *Relation) D() int { return len(r.valueStr) }

// Value returns the value id of tuple t at attribute a.
func (r *Relation) Value(t, a int) int32 { return r.rows[t][a] }

// Row returns the value ids of tuple t. The returned slice is shared;
// callers must not modify it.
func (r *Relation) Row(t int) []int32 { return r.rows[t] }

// ValueString returns the string of a value id.
func (r *Relation) ValueString(id int32) string { return r.valueStr[id] }

// ValueAttr returns the attribute index a value id belongs to.
func (r *Relation) ValueAttr(id int32) int { return r.valueAttr[id] }

// ValueLabel renders a value id as "Attr=string" for human consumption.
func (r *Relation) ValueLabel(id int32) string {
	return r.Attrs[r.valueAttr[id]] + "=" + r.valueStr[id]
}

// ValueID returns the id of string s under attribute a, if interned.
func (r *Relation) ValueID(a int, s string) (int32, bool) {
	id, ok := r.dict[a][s]
	if !ok && r.over != nil {
		id, ok = r.over[a][s]
	}
	return id, ok
}

// AttrIndex returns the index of the named attribute, or -1.
func (r *Relation) AttrIndex(name string) int {
	for i, a := range r.Attrs {
		if a == name {
			return i
		}
	}
	return -1
}

// AttrIndices resolves attribute names to indices; unknown names error.
func (r *Relation) AttrIndices(names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		ix := r.AttrIndex(n)
		if ix < 0 {
			return nil, fmt.Errorf("relation %q: unknown attribute %q", r.Name, n)
		}
		out[i] = ix
	}
	return out, nil
}

// DomainSize returns |Vi|, the number of distinct values of attribute a.
func (r *Relation) DomainSize(a int) int {
	n := len(r.dict[a])
	if r.over != nil {
		n += len(r.over[a])
	}
	return n
}

// TupleStrings renders tuple t back to strings.
func (r *Relation) TupleStrings(t int) []string {
	out := make([]string, r.M())
	for a, id := range r.rows[t] {
		out[a] = r.valueStr[id]
	}
	return out
}

// IsNull reports whether tuple t's value at attribute a is the NULL token.
func (r *Relation) IsNull(t, a int) bool {
	return r.valueStr[r.rows[t][a]] == Null
}

// NullFraction returns the fraction of NULLs in attribute a.
func (r *Relation) NullFraction(a int) float64 {
	if r.N() == 0 {
		return 0
	}
	id, ok := r.ValueID(a, Null)
	if !ok {
		return 0
	}
	c := 0
	for t := range r.rows {
		if r.rows[t][a] == id {
			c++
		}
	}
	return float64(c) / float64(r.N())
}

// Stats holds bulk per-value occurrence information.
type Stats struct {
	// Count[v] is d_v, the number of tuples containing value id v.
	Count []int
	// Tuples[v] lists the tuple indices containing value id v, ascending.
	Tuples [][]int32
}

// Stats returns per-value occurrence lists, i.e. the (sparse) columns
// of matrix N before normalization. It is a counting sort: one pass
// counts each value, the lists are cut as capacity-capped windows of
// one n·m slab, and a second pass fills them in tuple order.
func (r *Relation) Stats() *Stats {
	s := &Stats{
		Count:  make([]int, r.D()),
		Tuples: make([][]int32, r.D()),
	}
	for _, row := range r.rows {
		for _, v := range row {
			s.Count[v]++
		}
	}
	flat := make([]int32, r.N()*r.M())
	off := 0
	for v, c := range s.Count {
		s.Tuples[v] = flat[off : off : off+c]
		off += c
	}
	for t, row := range r.rows {
		for _, v := range row {
			s.Tuples[v] = append(s.Tuples[v], int32(t))
		}
	}
	return s
}

// Project returns a new relation over the given attribute indices,
// preserving every tuple (bag semantics). Value ids are re-interned.
func (r *Relation) Project(attrs []int) *Relation {
	p, _ := ProjectColumns(AsColumns(r), attrs, r.Name+"-proj", nil) // no failing reads in memory
	return p
}

// Select returns a new relation containing only the given tuple indices,
// in the given order.
func (r *Relation) Select(tuples []int) *Relation {
	b := NewBuilder(r.Name+"-sel", r.Attrs)
	for _, t := range tuples {
		if err := b.Add(r.TupleStrings(t)); err != nil {
			panic(err)
		}
	}
	return b.Relation()
}
