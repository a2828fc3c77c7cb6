package fd

import (
	"fmt"
	"sort"

	"structmine/internal/relation"
)

// KeysColumns returns all minimal candidate keys of the instance: the minimal
// attribute sets whose values are unique across tuples. A set X is a
// superkey iff no pair of distinct rows agrees on all of X, i.e. X hits
// the complement of every maximal agree set — so the minimal keys are
// exactly the minimal transversals of those complements (the same
// machinery FDEP uses for minimal left-hand sides).
//
// Like FDEP, the computation is quadratic in the number of distinct
// rows; it is intended for the interactive report over moderate
// instances.
func KeysColumns(c relation.Columns) ([]AttrSet, error) {
	n, m := c.N(), c.M()
	if m > MaxAttrs {
		return nil, fmt.Errorf("fd: relation has %d attributes, max %d", m, MaxAttrs)
	}
	if m == 0 {
		return nil, nil
	}
	if n <= 1 {
		return []AttrSet{0}, nil // the empty set identifies ≤1 tuple
	}
	rows, err := distinctRows(c)
	if err != nil {
		return nil, err
	}
	if len(rows) < n {
		// Exact duplicate tuples exist: no attribute set can tell them
		// apart, so the instance has no key at all.
		return nil, nil
	}
	agree := maximalSets(agreeSets(rows, m))
	full := FullSet(m)
	family := make([]AttrSet, len(agree))
	for i, ag := range agree {
		family[i] = full.Minus(ag)
	}
	keys := minimalTransversals(family)
	sort.Slice(keys, func(i, j int) bool {
		if c1, c2 := keys[i].Count(), keys[j].Count(); c1 != c2 {
			return c1 < c2
		}
		return keys[i] < keys[j]
	})
	return keys, nil
}
