package relation

import (
	"errors"
	"fmt"
	"maps"
)

// ErrShapeMismatch reports an appended CSV body whose header does not
// match the schema of the relation it extends.
var ErrShapeMismatch = errors.New("relation: append header does not match the dataset schema")

// Extend returns a new relation holding r's tuples followed by the given
// rows (strings, one per attribute; empty strings become Null). The
// receiver is not modified — concurrent readers of r keep a consistent
// view — and the two relations share the immutable prefix: row slices
// for tuples below r.N() are the same backing arrays, and value ids are
// append-stable (the extension interns exactly like Builder.Add, so the
// result is indistinguishable from parsing the concatenated source).
//
// The dictionary is shared too: the new relation reads r's maps and
// interns what it adds into a private overlay, r's own overlay copied
// forward, so an append costs O(appended values), not O(D); an overlay
// that has outgrown half of its base is folded into a fresh base by the
// next Extend. Sharing freezes r: do not add to a relation once extended.
func (r *Relation) Extend(rows [][]string) (*Relation, error) {
	b := r.extend()
	for i, vals := range rows {
		if err := b.Add(vals); err != nil {
			return nil, fmt.Errorf("relation: appended row %d: %w", i+1, err)
		}
	}
	return b.r, nil
}

// extend starts the relation Extend returns, with no rows added yet.
func (r *Relation) extend() *Builder {
	nr := &Relation{
		Name:      r.Name,
		Attrs:     r.Attrs,
		rows:      r.rows[:len(r.rows):len(r.rows)],
		valueStr:  r.valueStr[:len(r.valueStr):len(r.valueStr)],
		valueAttr: r.valueAttr[:len(r.valueAttr):len(r.valueAttr)],
		dict:      r.dict,
		over:      make([]map[string]int32, len(r.dict)),
	}
	overlaid := 0
	for _, m := range r.over {
		overlaid += len(m)
	}
	fold := 2*overlaid > len(r.valueStr)-overlaid
	for a := range nr.over {
		nr.over[a] = map[string]int32{}
		if !fold && r.over != nil {
			maps.Copy(nr.over[a], r.over[a])
		}
	}
	if fold { // refilled from the id-ordered tables, cheaper than iterating the maps
		nr.dict = make([]map[string]int32, len(r.dict))
		for a := range nr.dict {
			nr.dict[a] = make(map[string]int32, r.DomainSize(a))
		}
		for id, s := range r.valueStr {
			nr.dict[r.valueAttr[id]][s] = int32(id)
		}
	}
	return &Builder{r: nr, from: len(nr.rows)}
}

// AppendCSV parses a header-first CSV body whose header must equal r's
// schema exactly (same attribute names, same order) and returns a new
// relation extending r with the body's rows, scanned as ParseCSV scans
// a body. The row count of the body is returned alongside; lim bounds
// the parse of the body itself.
// Header disagreement fails with an error wrapping ErrShapeMismatch.
func AppendCSV(r *Relation, data []byte, lim Limits) (*Relation, int, error) {
	var b *Builder
	err := scanCSV(newRecords(data), lim, func(header []string) error {
		if len(header) != len(r.Attrs) {
			return fmt.Errorf("%w: body has %d attributes, dataset has %d",
				ErrShapeMismatch, len(header), len(r.Attrs))
		}
		for i, a := range header {
			if a != r.Attrs[i] {
				return fmt.Errorf("%w: column %d is %q, dataset has %q",
					ErrShapeMismatch, i+1, a, r.Attrs[i])
			}
		}
		b = r.extend()
		return nil
	}, func(fields [][]byte, strs []string) { b.addRecord(fields, strs) })
	if err != nil {
		return nil, 0, err
	}
	return b.r, b.r.N() - r.N(), nil
}
