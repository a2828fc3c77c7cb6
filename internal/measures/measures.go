// Package measures implements the paper's two duplication measures
// (Section 8, "Duplication Measures"):
//
//	RAD(CA) = 1 − H(Π_CA(T)) / log2(n)   (bag projection, bits saved)
//	RTR(CA) = 1 − n'/n                   (set projection, tuples saved)
//
// RAD is 1 when the projection on CA is constant (maximal duplication)
// and 0 when every projected row is distinct; RTR quantifies the tuple
// reduction of projecting with duplicate elimination. The paper's
// H(t_CA|CA) is under-specified; RADWeighted additionally scales the
// entropy by |CA|/m (reading "the weights are taken as the probability
// of this set of attributes" literally). See DESIGN.md.
package measures

import (
	"math"

	"structmine/internal/it"
	"structmine/internal/relation"
)

// RAD returns the Relative Attribute Duplication of the attribute group.
// Groups are attribute indices; an empty group or empty relation yields 0.
func RAD(r *relation.Relation, attrs []int) float64 {
	rad, _ := RADColumns(relation.AsColumns(r), attrs) // no failing reads in memory
	return rad
}

// RADWeighted is RAD with the projection entropy scaled by |CA|/m,
// making the measure width-sensitive as the paper describes.
func RADWeighted(c relation.Columns, attrs []int) (float64, error) {
	n := c.N()
	m := c.M()
	if n <= 1 || len(attrs) == 0 || m == 0 {
		return 0, nil
	}
	counts, err := relation.ProjectionCountsColumns(c, attrs)
	if err != nil {
		return 0, err
	}
	h := it.EntropyCounts(counts) * float64(len(attrs)) / float64(m)
	return 1 - h/math.Log2(float64(n)), nil
}

// RTR returns the Relative Tuple Reduction of the attribute group.
func RTR(r *relation.Relation, attrs []int) float64 {
	rtr, _ := RTRColumns(relation.AsColumns(r), attrs) // no failing reads in memory
	return rtr
}

// RADColumns is RAD over the column interface. The projection counts
// arrive in a canonical sorted order, so the entropy sum — and hence the
// measure — is bit-identical across Columns implementations.
func RADColumns(c relation.Columns, attrs []int) (float64, error) {
	n := c.N()
	if n <= 1 || len(attrs) == 0 {
		return 0, nil
	}
	counts, err := relation.ProjectionCountsColumns(c, attrs)
	if err != nil {
		return 0, err
	}
	return 1 - it.EntropyCounts(counts)/math.Log2(float64(n)), nil
}

// RTRColumns is RTR over the paged column interface.
func RTRColumns(c relation.Columns, attrs []int) (float64, error) {
	n := c.N()
	if n == 0 || len(attrs) == 0 {
		return 0, nil
	}
	distinct, err := relation.DistinctRowsColumns(c, attrs)
	if err != nil {
		return 0, err
	}
	return 1 - float64(distinct)/float64(n), nil
}
