package relation

import "structmine/internal/it"

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
// from the value index: EntropyBits is the projection entropy H(A) over
// the occurrence counts, and Distinct the number of values.
type AttrMarginal struct {
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
	return MarginalOfCounts(counts, c.N()), nil
}

// MarginalOfCounts builds the marginal of one attribute of an n-tuple
// relation from its occurrence counts, which it sorts in place. The
// entropy is it.NH's, which depends only on the multiset of counts, so
// every source of a marginal — a value-index walk in any value-id
// order, or a colstore file's validation pass — is bit-identical to
// every other.
func MarginalOfCounts(counts []int, n int) AttrMarginal {
	h := 0.0
	if n > 0 {
		h = it.NH(n, counts) / float64(n)
	}
	return AttrMarginal{EntropyBits: h, Distinct: len(counts)}
}

// PartitionSource is the capability interface a Columns wrapper
// implements when it can serve stripped partitions without a fresh
// index walk (e.g. a primcache wrapper). Consumers probe it by type
// assertion and fall back to StrippedPartition. The returned slices
// are shared and read-only: callers must not modify them.
type PartitionSource interface {
	SinglePartition(a int) (elems, offs []int32, err error)
}
