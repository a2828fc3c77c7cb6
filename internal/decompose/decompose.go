// Package decompose applies a ranked functional dependency to a
// relation — the physical-design step FD-RANK feeds (Section 7: "Our
// ranking reveals which dependencies can best be used in a decomposition
// algorithm to improve the information content of the schema").
//
// For an FD X → Y over relation R, the decomposition is
//
//	S1 = π_{X∪Y}(R)   (set semantics — the duplication collapses here)
//	S2 = π_{R−Y}(R)   (bag semantics — one row per original tuple)
//
// which is lossless precisely because X → Y holds: R = S2 ⋈_X S1. The
// package verifies the reconstruction and reports how much redundancy
// the decomposition removed.
package decompose

import (
	"fmt"
	"sort"

	"structmine/internal/fd"
	"structmine/internal/measures"
	"structmine/internal/relation"
)

// Result is a vertical decomposition of a relation on one FD.
type Result struct {
	// S1 holds X ∪ Y with duplicates eliminated; S2 holds the remaining
	// attributes plus X.
	S1, S2 *relation.Relation
	// CellsBefore and CellsAfter count stored values (n×m) before and
	// after; Reduction is 1 − after/before.
	CellsBefore, CellsAfter int
	Reduction               float64
	// RAD / RTR of the decomposed attribute set on the original
	// relation — the paper's per-dependency duplication measures.
	RAD, RTR float64
}

// OnSets decomposes the instance of the job's kernel s on the dependency
// f. It returns an error when the FD does not hold exactly (decomposing
// on an approximate dependency would lose the violating tuples). S1 and
// S2 are built in memory from one streaming pass over the instance each;
// S1's rows are the first tuples of s's groups of X∪Y, in order of first
// appearance. The g3 check, the groups and the measures are all asked of
// s.
func OnSets(s *fd.Sets, f fd.FD) (*Result, error) {
	c := s.Columns()
	f.RHS = f.RHS.Minus(f.LHS) // drop the trivial part
	if f.RHS.Empty() {
		return nil, fmt.Errorf("decompose: dependency has empty (or trivial) right-hand side")
	}
	max := f.Attrs().Attrs()
	if len(max) > 0 && max[len(max)-1] >= c.M() {
		return nil, fmt.Errorf("decompose: dependency references attribute %d, relation has %d", max[len(max)-1], c.M())
	}
	if g3, err := s.G3(f); err != nil {
		return nil, err
	} else if g3 > 0 { // g3 is 0 exactly when the FD holds
		return nil, fmt.Errorf("decompose: %s does not hold exactly (g3=%.4f)", f.Format(c.AttrNames()), g3)
	}

	s1Attrs := f.Attrs().Attrs()
	var s2Attrs []int
	for a := 0; a < c.M(); a++ {
		if !f.RHS.Has(a) {
			s2Attrs = append(s2Attrs, a)
		}
	}
	// Degenerate case: empty LHS (constant RHS). S2 keeps everything
	// except Y; S1 is the single constant row.
	sort.Ints(s1Attrs)

	first, _, err := s.GroupBy(s1Attrs)
	if err != nil {
		return nil, err
	}
	s1, err := relation.ProjectColumns(c, s1Attrs, c.Name()+"_s1", first)
	if err != nil {
		return nil, err
	}
	s2, err := relation.ProjectColumns(c, s2Attrs, c.Name()+"_s2", nil)
	if err != nil {
		return nil, err
	}

	res := &Result{
		S1: s1, S2: s2,
		CellsBefore: c.N() * c.M(),
		CellsAfter:  s1.N()*s1.M() + s2.N()*s2.M(),
	}
	if res.CellsBefore > 0 {
		res.Reduction = 1 - float64(res.CellsAfter)/float64(res.CellsBefore)
	}
	ms, err := measures.OfSets(s, s1Attrs)
	if err != nil {
		return nil, err
	}
	res.RAD, res.RTR = ms.RAD, ms.RTR
	return res, nil
}

// Lossless verifies R = S2 ⋈_X S1 by reconstructing every original tuple
// from the decomposition. It returns an error describing the first
// mismatch (nil means the decomposition is information-preserving).
func (res *Result) Lossless(c relation.Columns, f fd.FD) error {
	names := c.AttrNames()
	lhsAttrs, rhsAttrs := f.LHS.Attrs(), f.RHS.Attrs()
	strs, err := c.ValueStrings()
	if err != nil {
		return err
	}
	if f.LHS.Empty() {
		if res.S1.N() != 1 {
			return fmt.Errorf("decompose: constant dependency should yield a single S1 row, got %d", res.S1.N())
		}
		rows, err := relation.FetchRows(c, []int{0})
		if err != nil {
			return err
		}
		for i, a := range rhsAttrs {
			want := strs[rows[0][a]]
			got := res.S1.ValueString(res.S1.Value(0, i))
			if want != got {
				return fmt.Errorf("decompose: constant attribute %s reconstructs to %q, want %q", names[a], got, want)
			}
		}
		return nil
	}
	s1Index := func(attrs []int) ([]int, error) {
		ns := make([]string, len(attrs))
		for i, a := range attrs {
			ns[i] = names[a]
		}
		return res.S1.AttrIndices(ns)
	}
	s1LHS, err := s1Index(lhsAttrs)
	if err != nil {
		return err
	}
	s1RHS, err := s1Index(rhsAttrs)
	if err != nil {
		return err
	}
	// Index S1 on X.
	index := map[string]int{}
	key := make([]byte, 0, 64)
	for t := 0; t < res.S1.N(); t++ {
		key = key[:0]
		for _, a := range s1LHS {
			key = append(key, res.S1.ValueString(res.S1.Value(t, a))...)
			key = append(key, 0)
		}
		index[string(key)] = t
	}

	nl := len(lhsAttrs)
	var mismatch error
	err = relation.ForEachRow(c, append(lhsAttrs, rhsAttrs...), func(t int, row []int32) bool {
		key = key[:0]
		for _, v := range row[:nl] {
			key = append(key, strs[v]...)
			key = append(key, 0)
		}
		s1Row, ok := index[string(key)]
		if !ok {
			mismatch = fmt.Errorf("decompose: tuple %d has no join partner in S1", t)
			return false
		}
		for i, v := range row[nl:] {
			want := strs[v]
			got := res.S1.ValueString(res.S1.Value(s1Row, s1RHS[i]))
			if want != got {
				mismatch = fmt.Errorf("decompose: tuple %d attribute %s reconstructs to %q, want %q",
					t, names[rhsAttrs[i]], got, want)
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	return mismatch
}
