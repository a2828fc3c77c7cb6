package fd

import (
	"context"

	"structmine/internal/relation"
)

// This file holds the paged-column counterparts of the relation-backed
// data accessors: level-1 partition construction from the value index
// and direct satisfaction checks over page-stripe scans. Everything
// above them (the TANE lattice walk, pruning, minimal covers) is
// shared, so paged and resident mining cannot drift.

// singlePartitionColumns builds Π_{A} from the value index: the index
// lists values in ascending id order with ascending tuple runs, which
// is exactly the class order and tuple order singlePartitionClasses
// emits, flattened directly into the arena layout
// (relation.StrippedPartition). A source that can serve cached
// partitions (relation.PartitionSource, e.g. a primcache wrapper) is
// probed first; its slices are shared read-only, which is safe because
// the miners only ever read level-1 partitions — the class index and
// every refinement are carved fresh from the job's arena.
func singlePartitionColumns(c relation.Columns, a int) (*partition, error) {
	var (
		elems, offs []int32
		err         error
	)
	if ps, ok := c.(relation.PartitionSource); ok {
		elems, offs, err = ps.SinglePartition(a)
	} else {
		elems, offs, err = relation.StrippedPartition(c, a)
	}
	if err != nil {
		return nil, err
	}
	return &partition{elems: elems, offs: offs}, nil
}

// HoldsColumns reports whether the dependency is satisfied, streaming
// page stripes of the involved attributes instead of touching rows. It
// answers identically to Holds on the equivalent resident relation.
func HoldsColumns(c relation.Columns, f FD) (bool, error) {
	lhs := f.LHS.Attrs()
	nl := len(lhs)
	seen := make(map[string][]int32, c.N())
	key := make([]byte, 0, 32)
	holds := true
	err := relation.ForEachRow(c, append(lhs, f.RHS.Attrs()...), func(t int, row []int32) bool {
		key = appendValueKey(key[:0], row[:nl])
		if prev, ok := seen[string(key)]; ok {
			for i, v := range row[nl:] {
				if prev[i] != v {
					holds = false
					return false
				}
			}
			return true
		}
		seen[string(key)] = append([]int32(nil), row[nl:]...)
		return true
	})
	return holds, err
}

// G3Columns is G3 over the column interface: a direct count, per group
// of tuples agreeing on the LHS, of the most frequent RHS combination.
func G3Columns(c relation.Columns, f FD) (float64, error) {
	if c.N() == 0 {
		return 0, nil
	}
	lhs := f.LHS.Attrs()
	nl := len(lhs)
	groups := map[string]map[string]int{} // LHS group → RHS combination → count
	var key, val []byte
	err := relation.ForEachRow(c, append(lhs, f.RHS.Attrs()...), func(t int, row []int32) bool {
		key = appendValueKey(key[:0], row[:nl])
		val = appendValueKey(val[:0], row[nl:])
		g := groups[string(key)]
		if g == nil {
			g = map[string]int{}
			groups[string(key)] = g
		}
		g[string(val)]++
		return true
	})
	if err != nil {
		return 0, err
	}
	keep := 0
	for _, g := range groups {
		best := 0
		for _, n := range g {
			if n > best {
				best = n
			}
		}
		keep += best
	}
	return 1 - float64(keep)/float64(c.N()), nil
}

// appendValueKey appends the map-key encoding of a value-id tuple.
func appendValueKey(key []byte, vals []int32) []byte {
	for _, v := range vals {
		key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), 0xfe)
	}
	return key
}

// DiscoverColumns mines all minimal, non-trivial FDs over the paged
// interface. It always takes the TANE branch — FDEP's pairwise
// difference sets want random row access — which is no loss: Discover's
// two miners return identical FD sets, and the canonical SortFDs order
// makes the choice unobservable.
func DiscoverColumns(ctx context.Context, c relation.Columns) ([]FD, error) {
	return TANEColumnsCtx(ctx, c)
}
