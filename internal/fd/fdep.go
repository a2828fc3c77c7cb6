package fd

import (
	"context"
	"fmt"
	"sort"

	"structmine/internal/relation"
)

// FDEP mines all minimal, non-trivial functional dependencies that hold
// in the instance, following Savnik & Flach's bottom-up scheme: first the
// maximal invalid dependencies are derived from pairwise tuple
// comparisons (agree sets), then the minimal valid left-hand sides are
// obtained as minimal transversals of the disagreement complements.
//
// The pairwise step is quadratic in the number of *distinct* rows; use
// TANE for instances where that is prohibitive (the two miners return
// identical results).
func FDEP(r *relation.Relation) ([]FD, error) {
	m := r.M()
	if m > MaxAttrs {
		return nil, fmt.Errorf("fd: relation has %d attributes, max %d", m, MaxAttrs)
	}
	if r.N() == 0 || m == 0 {
		return nil, nil
	}
	rows, err := NewSets(context.Background(), relation.AsColumns(r)).distinctRows()
	if err != nil {
		return nil, err
	}
	agree := agreeSets(rows, m)
	full := FullSet(m)

	var out []FD
	for a := 0; a < m; a++ {
		// Maximal agree sets among pairs disagreeing on a.
		var violating []AttrSet
		for _, ag := range agree {
			if !ag.Has(a) {
				violating = append(violating, ag)
			}
		}
		violating = maximalSets(violating)
		if len(violating) == 0 {
			// No pair disagrees on a: with ≥2 distinct rows, a is
			// constant, so ∅→a holds; with a single distinct row every
			// FD holds and ∅→a is the minimal one.
			if len(rows) >= 1 {
				out = append(out, FD{LHS: 0, RHS: NewAttrSet(a)})
			}
			continue
		}
		// X → a is valid iff X ⊄ ag for every violating ag, i.e. X hits
		// (full \ ag) \ {a} for each; minimal X = minimal transversals.
		family := make([]AttrSet, len(violating))
		empty := false
		for i, ag := range violating {
			family[i] = full.Minus(ag).Remove(a)
			if family[i].Empty() {
				empty = true // a pair differing only on a: nothing determines a
				break
			}
		}
		if empty {
			continue
		}
		for _, lhs := range minimalTransversals(family) {
			out = append(out, FD{LHS: lhs, RHS: NewAttrSet(a)})
		}
	}
	SortFDs(out)
	return out, nil
}

// distinctRows returns one value-id row per distinct tuple, in order of
// first appearance: the rows of Sets.GroupBy's representatives. The rows are
// materialized: the agree-set computation compares them pairwise.
func (s *Sets) distinctRows() ([][]int32, error) {
	first, _, err := s.GroupBy(relation.AllAttrs(s.c))
	if err != nil {
		return nil, err
	}
	return relation.FetchRows(s.c, first)
}

// agreeSets returns the deduplicated agree sets of all pairs of distinct
// rows. The full set never appears (rows are distinct).
func agreeSets(rows [][]int32, m int) []AttrSet {
	seen := map[AttrSet]bool{}
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			var ag AttrSet
			for a := 0; a < m; a++ {
				if rows[i][a] == rows[j][a] {
					ag = ag.Add(a)
				}
			}
			seen[ag] = true
		}
	}
	out := make([]AttrSet, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// maximalSets filters a family down to its ⊆-maximal members.
func maximalSets(sets []AttrSet) []AttrSet {
	var out []AttrSet
	for i, s := range sets {
		maximal := true
		for j, t := range sets {
			if i != j && s.SubsetOf(t) && s != t {
				maximal = false
				break
			}
			if i < j && s == t {
				maximal = false // dedupe
				break
			}
		}
		if maximal {
			out = append(out, s)
		}
	}
	return out
}

// minimalTransversals enumerates the minimal hitting sets of the family
// with Berge's sequential algorithm. Families here are small (bounded by
// the number of maximal agree sets), so the simple quadratic
// minimization suffices.
func minimalTransversals(family []AttrSet) []AttrSet {
	// Smaller sets first keeps intermediate transversal lists small.
	sorted := append([]AttrSet(nil), family...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Count() < sorted[j].Count() })

	trs := []AttrSet{0}
	for _, s := range sorted {
		var next []AttrSet
		for _, t := range trs {
			if !t.Intersect(s).Empty() {
				next = append(next, t)
				continue
			}
			for _, e := range s.Attrs() {
				next = append(next, t.Add(e))
			}
		}
		trs = minimizeSets(next)
	}
	return trs
}

// minimizeSets removes supersets (and duplicates), keeping ⊆-minimal
// members only.
func minimizeSets(sets []AttrSet) []AttrSet {
	sortBySize(sets)
	var out []AttrSet
outer:
	for _, s := range sets {
		for _, kept := range out {
			if kept == s || kept.SubsetOf(s) {
				continue outer
			}
		}
		out = append(out, s)
	}
	return out
}
