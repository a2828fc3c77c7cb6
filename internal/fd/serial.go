package fd

import (
	"context"
	"sort"

	"structmine/internal/relation"
)

// This file keeps the original map-based partition builders verbatim (on
// the slice-of-slices representation they shipped with) as the
// differential-testing oracles for the class-index refinement kernels
// in tane.go, mirroring limbo's closestObjSerial / NewTreeSerial split.

// singlePartitionClasses builds the stripped classes of Π_{A} the
// original way: group by value with a map, then emit groups of ≥ 2 in
// ascending value order.
func singlePartitionClasses(r *relation.Relation, a int) [][]int32 {
	groups := map[int32][]int32{}
	for t := 0; t < r.N(); t++ {
		v := r.Value(t, a)
		groups[v] = append(groups[v], int32(t))
	}
	keys := make([]int32, 0, len(groups))
	for v := range groups {
		keys = append(keys, v)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var classes [][]int32
	for _, v := range keys {
		if g := groups[v]; len(g) >= 2 {
			classes = append(classes, g)
		}
	}
	return classes
}

// productClasses is the original probe-table product: a fresh tuple→class
// table and a fresh bucket map per class of a, subclasses emitted in
// ascending b-class order. Quadratic in allocations, linear in time; it
// is the only two-partition product left, and refine in tane.go must
// match its output exactly whenever b is a single attribute's partition
// (TestPropProductMatchesSerial).
func productClasses(a, b *partition, n int) [][]int32 {
	tClass := make([]int32, n)
	for i := range tClass {
		tClass[i] = -1
	}
	for ci, nc := 0, b.numClasses(); ci < nc; ci++ {
		for _, t := range b.class(ci) {
			tClass[t] = int32(ci)
		}
	}
	var classes [][]int32
	bucket := map[int32][]int32{}
	for ai, na := 0, a.numClasses(); ai < na; ai++ {
		for k := range bucket {
			delete(bucket, k)
		}
		for _, t := range a.class(ai) {
			if bc := tClass[t]; bc >= 0 {
				bucket[bc] = append(bucket[bc], t)
			}
		}
		keys := make([]int32, 0, len(bucket))
		for k := range bucket {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			if g := bucket[k]; len(g) >= 2 {
				classes = append(classes, append([]int32(nil), g...))
			}
		}
	}
	return classes
}

// productSerial is the reference product: the original algorithm,
// flattened into the arena layout at the end.
func productSerial(a, b *partition, n int) *partition {
	taneProducts.Inc()
	return fromClasses(productClasses(a, b, n))
}

// TANESerial mines the same minimal FDs as TANE but forms every lattice
// node's partition as a product of its two prefix-join parents through
// the retained serial reference — no class index, no partition sharing,
// regardless of workload size and GOMAXPROCS — and builds its level-1
// partitions and satisfaction checks from the rows
// (singlePartitionClasses, Holds) where TANE reads the value index. It
// exists for differential tests (TestPropTANEMatchesSerial compares
// whole runs for exact equality); new callers should use TANE.
func TANESerial(r *relation.Relation) ([]FD, error) {
	return (&tane{c: relation.AsColumns(r), serial: r}).mine(context.Background())
}
