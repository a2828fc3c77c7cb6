package fd

import (
	"sort"
	"strings"

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
// tuples agreeing on LHS agree on RHS.
func Holds(r *relation.Relation, f FD) bool {
	lhs := f.LHS.Attrs()
	rhs := f.RHS.Attrs()
	seen := make(map[string][]int32, r.N())
	key := make([]byte, 0, 32)
	for t := 0; t < r.N(); t++ {
		key = key[:0]
		for _, a := range lhs {
			v := r.Value(t, a)
			key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), 0xfe)
		}
		cur := make([]int32, len(rhs))
		for i, a := range rhs {
			cur[i] = r.Value(t, a)
		}
		if prev, ok := seen[string(key)]; ok {
			for i := range cur {
				if prev[i] != cur[i] {
					return false
				}
			}
		} else {
			seen[string(key)] = cur
		}
	}
	return true
}

// G3 returns the g3 approximation error of X → A (single-attribute RHS):
// the minimum fraction of tuples that must be removed for the dependency
// to hold (Huhtala et al.). Zero means the FD holds exactly.
func G3(r *relation.Relation, f FD) float64 {
	g3, _ := G3Columns(relation.AsColumns(r), f) // an in-memory relation has no failing reads
	return g3
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

// FormatAll renders a list of FDs, one per line.
func FormatAll(fds []FD, names []string) string {
	var b strings.Builder
	for _, f := range fds {
		b.WriteString(f.Format(names))
		b.WriteByte('\n')
	}
	return b.String()
}
