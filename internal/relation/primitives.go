package relation

import (
	"math"
	"slices"

	"structmine/internal/it"
)

// This file holds the single-attribute primitives every miner rederives
// per submission — stripped partitions (TANE level 1) and marginal
// entropies (describe, LIMBO seeding) — built from the value index
// alone: pure metadata → primitive, no row I/O. They live here, in one
// place, so the primitive cache (internal/primcache) and the direct
// consumers (internal/fd, internal/task) share one construction and
// bit-identity holds by definition rather than by parallel maintenance.

// StrippedPartition builds the stripped partition Π_{a} from the value
// index: classes in ascending value-id order, tuples ascending within
// each class, singleton classes dropped. elems holds the class tuples
// back to back; offs is the class boundary list (len = classes+1,
// offs[0] = 0). This is exactly the layout internal/fd's partitions
// use, so a cached copy can seed TANE level 1 directly.
//
// The result is appended to elems[:0] and offs[:0], so a caller that
// passes buffers of capacity n and n/2+1 (every stripped class holds at
// least two tuples) gets them back filled, with no allocation; nil
// buffers give fresh heap slices, safe to cache and share read-only
// across concurrent jobs. runs is VisitValues' decode buffer.
func StrippedPartition(c Columns, a int, elems, offs []int32, runs *[]Run) ([]int32, []int32, error) {
	elems, offs = elems[:0], append(offs[:0], 0)
	err := c.VisitValues(a, runs, func(v int32, count int, runs []Run) error {
		if count < 2 {
			return nil // stripped: singleton classes are dropped
		}
		for _, r := range runs {
			for t := r.Start; t < r.Start+r.Len; t++ {
				elems = append(elems, t)
			}
		}
		offs = append(offs, int32(len(elems)))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return elems, offs, nil
}

// AttrMarginal is the per-attribute entropy summary describe derives
// from the value index. HV is the attribute's contribution to H(V)
// under the tuple-uniform marginal p(v) = n_v/(n·m) — the term summed
// into TupleInfoBits — and EntropyBits is the plain projection entropy
// H(A) over the occurrence counts.
type AttrMarginal struct {
	HV          float64
	EntropyBits float64
	Distinct    int
}

// ComputeAttrMarginal builds the marginal for attribute a from the
// value index, through MarginalOfCounts.
func ComputeAttrMarginal(c Columns, a int) (AttrMarginal, error) {
	var counts []int
	err := c.VisitValues(a, nil, func(_ int32, count int, _ []Run) error {
		counts = append(counts, count)
		return nil
	})
	if err != nil {
		return AttrMarginal{}, err
	}
	return MarginalOfCounts(counts, c.N(), c.M()), nil
}

// MarginalOfCounts builds the marginal of one attribute of an n × m
// relation from its occurrence counts in ascending value-id order, and
// sorts counts in place. It is the one place the arithmetic lives, so
// every source of a marginal — a value-index walk, or a colstore file's
// validation pass — is bit-identical to every other. Float summation
// order is part of the contract: HV accumulates in ascending value-id
// order over p(v) = n_v/(n·m), and EntropyBits is it.EntropyCounts over
// the counts sorted descending.
func MarginalOfCounts(counts []int, n, m int) AttrMarginal {
	total := float64(n) * float64(m)
	hv := 0.0
	for _, count := range counts {
		if count > 0 && n > 0 {
			p := float64(count) / total
			hv -= p * math.Log2(p)
		}
	}
	slices.Sort(counts)
	slices.Reverse(counts)
	return AttrMarginal{HV: hv, EntropyBits: it.EntropyCounts(counts), Distinct: len(counts)}
}

// PartitionSource is the capability interface a Columns wrapper
// implements when it can serve stripped partitions without a fresh
// index walk (e.g. a primcache wrapper). Consumers probe it by type
// assertion and fall back to StrippedPartition. The returned slices
// are shared and read-only: callers must not modify them.
type PartitionSource interface {
	SinglePartition(a int) (elems, offs []int32, err error)
}
