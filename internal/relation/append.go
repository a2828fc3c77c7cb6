package relation

import (
	"bytes"
	"errors"
	"fmt"
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
func (r *Relation) Extend(rows [][]string) (*Relation, error) {
	nr := &Relation{
		Name:      r.Name,
		Attrs:     r.Attrs,
		rows:      r.rows[:len(r.rows):len(r.rows)],
		valueStr:  r.valueStr[:len(r.valueStr):len(r.valueStr)],
		valueAttr: r.valueAttr[:len(r.valueAttr):len(r.valueAttr)],
		dict:      make([]map[string]int32, len(r.dict)),
	}
	// The private dictionary is refilled from the id-ordered tables: a
	// sequential scan, about two thirds the cost of iterating r's maps.
	for a, m := range r.dict {
		nr.dict[a] = make(map[string]int32, len(m)+1)
	}
	for id, s := range r.valueStr {
		nr.dict[r.valueAttr[id]][s] = int32(id)
	}
	b := &Builder{r: nr}
	for i, vals := range rows {
		if err := b.Add(vals); err != nil {
			return nil, fmt.Errorf("relation: appended row %d: %w", i+1, err)
		}
	}
	return nr, nil
}

// AppendCSV parses a header-first CSV body whose header must equal r's
// schema exactly (same attribute names, same order) and returns a new
// relation extending r with the body's rows. The row count of the body
// is returned alongside; lim bounds the parse of the body itself.
// Header disagreement fails with an error wrapping ErrShapeMismatch.
func AppendCSV(r *Relation, data []byte, lim Limits) (*Relation, int, error) {
	var rows [][]string
	err := ScanCSV(bytes.NewReader(data), lim, func(header []string) error {
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
		return nil
	}, func(line int, rec []string) error {
		rows = append(rows, append([]string(nil), rec...))
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	nr, err := r.Extend(rows)
	if err != nil {
		return nil, 0, err
	}
	return nr, len(rows), nil
}
