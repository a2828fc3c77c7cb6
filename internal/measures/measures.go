// Package measures implements the paper's two duplication measures
// (Section 8, "Duplication Measures"):
//
//	RAD(CA) = 1 − H(Π_CA(T)) / log2(n)   (bag projection, bits saved)
//	RTR(CA) = 1 − n'/n                   (set projection, tuples saved)
//
// RAD is 1 when the projection on CA is constant (maximal duplication)
// and 0 when every projected row is distinct; RTR quantifies the tuple
// reduction of projecting with duplicate elimination. The paper's
// H(t_CA|CA) is under-specified; RADw additionally scales the entropy by
// |CA|/m (reading "the weights are taken as the probability of this set
// of attributes" literally). See DESIGN.md.
package measures

import (
	"context"
	"math"

	"structmine/internal/fd"
	"structmine/internal/it"
	"structmine/internal/relation"
)

// Measures are the duplication measures of one attribute set.
type Measures struct {
	RAD  float64
	RADw float64 // RAD with the projection entropy scaled by |CA|/m
	RTR  float64
}

// OfSets measures the attribute set attrs on the job's kernel over the
// instance: the multiplicities of the projected rows — Π_CA's class
// sizes, its singletons adding nothing — give H(Π_CA(T)) = it.NH/n for
// RAD and RADw, and the classes plus the singletons are n' for RTR.
// it.NH sums in a canonical order, so the measures are bit-identical
// across Columns implementations. A relation of at most one tuple, an
// empty set and a relation without attributes measure 0.
func OfSets(s *fd.Sets, attrs []int) (Measures, error) {
	n, m := s.Columns().N(), s.Columns().M()
	if n <= 1 || len(attrs) == 0 || m == 0 {
		return Measures{}, nil
	}
	counts, singletons, err := s.ClassSizes(attrs)
	if err != nil {
		return Measures{}, err
	}
	h, logN := it.NH(n, counts)/float64(n), math.Log2(float64(n))
	return Measures{
		RAD:  1 - h/logN,
		RADw: 1 - h*float64(len(attrs))/float64(m)/logN,
		RTR:  1 - float64(len(counts)+singletons)/float64(n),
	}, nil
}

// RAD returns the Relative Attribute Duplication of the attribute group
// of a resident relation, on a kernel of its own.
func RAD(r *relation.Relation, attrs []int) float64 {
	ms, _ := OfSets(fd.NewSets(context.Background(), relation.AsColumns(r)), attrs) // no failing reads in memory
	return ms.RAD
}

// RTR returns the Relative Tuple Reduction of the attribute group of a
// resident relation, on a kernel of its own.
func RTR(r *relation.Relation, attrs []int) float64 {
	ms, _ := OfSets(fd.NewSets(context.Background(), relation.AsColumns(r)), attrs) // no failing reads in memory
	return ms.RTR
}
