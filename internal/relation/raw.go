package relation

import "fmt"

// Raw is a relation's internal tables as a durable dataset file holds
// them: the attribute-qualified value dictionary (id → string, id →
// attribute) and the dense int32 row block. Together with the attribute
// names it reconstructs a Relation bit-identically — value ids keep
// their original interning order, so a relation restored from disk has
// the same ids, the same dictionary, and the same WriteCSV bytes as the
// original parse. With Rows left nil it is a file's schema and
// dictionary alone: the rowless relation colstore.Append hands to
// AppendCSV, so an appended body is interned by this package whether or
// not the dataset's rows are in memory.
type Raw struct {
	Name      string
	Attrs     []string
	ValueStr  []string // ValueStr[id] is the string of value id
	ValueAttr []int    // ValueAttr[id] is the attribute of value id
	Rows      [][]int32
}

// FromRaw reconstructs a Relation from its raw tables, validating every
// cross-reference so a corrupt or hostile file cannot produce a
// relation that panics later: value attributes must be in range, the
// (attribute, string) dictionary must be collision-free, and every row
// cell must reference a value of its own column. The input slices are
// adopted, not copied.
func FromRaw(raw Raw) (*Relation, error) {
	m := len(raw.Attrs)
	if len(raw.ValueStr) != len(raw.ValueAttr) {
		return nil, fmt.Errorf("relation: raw tables disagree: %d value strings, %d value attributes",
			len(raw.ValueStr), len(raw.ValueAttr))
	}
	r := &Relation{
		Name:      raw.Name,
		Attrs:     raw.Attrs,
		rows:      raw.Rows,
		valueStr:  raw.ValueStr,
		valueAttr: raw.ValueAttr,
		dict:      make([]map[string]int32, m),
	}
	sizes := make([]int, m) // per-attribute dictionary sizes: the maps never regrow
	for id, a := range raw.ValueAttr {
		if a < 0 || a >= m {
			return nil, fmt.Errorf("relation: value %d references attribute %d of %d", id, a, m)
		}
		sizes[a]++
	}
	for a := range r.dict {
		r.dict[a] = make(map[string]int32, sizes[a])
	}
	for id, a := range raw.ValueAttr {
		s := raw.ValueStr[id]
		if prior, dup := r.dict[a][s]; dup {
			return nil, fmt.Errorf("relation: duplicate dictionary entry %q under attribute %d (ids %d and %d)",
				s, a, prior, id)
		}
		r.dict[a][s] = int32(id)
	}
	d := int32(len(raw.ValueStr))
	for t, row := range raw.Rows {
		if len(row) != m {
			return nil, fmt.Errorf("relation: row %d has %d cells, schema has %d attributes", t, len(row), m)
		}
		for a, v := range row {
			if v < 0 || v >= d {
				return nil, fmt.Errorf("relation: row %d references value %d of %d", t, v, d)
			}
			if raw.ValueAttr[v] != a {
				return nil, fmt.Errorf("relation: row %d column %d references value %d of attribute %d",
					t, a, v, raw.ValueAttr[v])
			}
		}
	}
	return r, nil
}
