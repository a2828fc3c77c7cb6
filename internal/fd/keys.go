package fd

import (
	"cmp"
	"fmt"
	"slices"
)

// Keys returns the minimal candidate keys of the instance, nil when
// duplicate tuples (a class of Π_R) leave no attribute set unique. They
// are read off fds, any FD set equivalent to the instance's minimal FDs
// (TANE's, or their MinCover): with no two tuples identical, X is a
// superkey exactly when X+ = R. Lucchesi & Osborn's enumeration (JCSS
// 17(2), 1978) minimizes R, then X ∪ (K∖Y) for each key K and X → Y
// unless that set holds a known key. Past Π_R no tuple is read: the cost
// is polynomial in the numbers of keys and FDs, with the job's context
// checked once per key expanded. Keys come by size, then bit pattern.
func (s *Sets) Keys(fds []FD) ([]AttrSet, error) {
	n, m := s.c.N(), s.c.M()
	if m > MaxAttrs {
		return nil, fmt.Errorf("fd: relation has %d attributes, max %d", m, MaxAttrs)
	}
	if m == 0 {
		return nil, nil
	}
	if n <= 1 {
		return []AttrSet{0}, nil // the empty set identifies ≤1 tuple
	}
	full := FullSet(m)
	if dups, _, err := s.ClassSizes(full.Attrs()); err != nil || len(dups) > 0 {
		return nil, err
	}
	minimize := func(x AttrSet) AttrSet {
		for _, a := range x.Attrs() {
			if Closure(x.Remove(a), fds) == full {
				x = x.Remove(a)
			}
		}
		return x
	}
	keys := []AttrSet{minimize(full)}
	for i := 0; i < len(keys); i++ {
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
		for _, f := range fds {
			x := f.LHS.Union(keys[i].Minus(f.RHS))
			if !slices.ContainsFunc(keys, func(k AttrSet) bool { return k.SubsetOf(x) }) {
				keys = append(keys, minimize(x))
			}
		}
	}
	sortBySize(keys)
	return keys, nil
}

// sortBySize orders attribute sets by size, then by bit pattern.
func sortBySize(sets []AttrSet) {
	slices.SortFunc(sets, func(a, b AttrSet) int { return cmp.Or(a.Count()-b.Count(), cmp.Compare(a, b)) })
}
