package fd

import (
	"sort"

	"structmine/internal/relation"
)

// FD is a functional dependency X → Y. Miners emit single-attribute
// right-hand sides; FD-RANK's Step 2 may collapse several into one FD
// with a multi-attribute RHS.
type FD struct {
	LHS AttrSet
	RHS AttrSet
}

// String renders the FD positionally; use Format for named attributes.
func (f FD) String() string { return f.Format(nil) }

// Format renders "[X1,X2]->[Y]" with attribute names.
func (f FD) Format(names []string) string {
	return f.LHS.Format(names) + "->" + f.RHS.Format(names)
}

// Attrs returns LHS ∪ RHS, the set S of FD-RANK Step 1.b.
func (f FD) Attrs() AttrSet { return f.LHS.Union(f.RHS) }

// Holds reports whether the dependency is satisfied by the instance:
// tuples agreeing on LHS agree on RHS. It reads the rows directly — the
// oracles (BruteForce, TANESerial) share nothing with HoldsColumns'
// partitions.
func Holds(r *relation.Relation, f FD) bool {
	lhs, rhs := f.LHS.Attrs(), f.RHS.Attrs()
	first := make(map[string]int, r.N()) // LHS key → the first tuple carrying it
	var key []byte
	for t := 0; t < r.N(); t++ {
		key = key[:0]
		for _, a := range lhs {
			key = appendValueKey(key, r.Row(t)[a:a+1])
		}
		u, seen := first[string(key)]
		if !seen {
			first[string(key)] = t
			continue
		}
		for _, a := range rhs {
			if r.Value(u, a) != r.Value(t, a) {
				return false
			}
		}
	}
	return true
}

// appendValueKey appends the map-key encoding of a value-id tuple.
func appendValueKey(key []byte, vals []int32) []byte {
	for _, v := range vals {
		key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), 0xfe)
	}
	return key
}

// SortFDs orders FDs deterministically (by LHS then RHS bit patterns).
func SortFDs(fds []FD) {
	sort.Slice(fds, func(i, j int) bool {
		if fds[i].LHS != fds[j].LHS {
			return fds[i].LHS < fds[j].LHS
		}
		return fds[i].RHS < fds[j].RHS
	})
}
