//go:build (linux || darwin) && !race

package exec

import "testing"

// Pooled slabs are mapped outside the Go heap: carving from a new
// pooled arena maps its slab, and the mapping reads as zeroes.
func TestPooledSlabsAreMapped(t *testing.T) {
	mapped := mappedBytes.Load()
	a := &Arena{i32: numSlab[int32]{pooled: true}}
	buf := a.Int32s(arenaMinSlab)[:arenaMinSlab]
	if got := mappedBytes.Load() - mapped; got != arenaMinSlab*sizeInt32 {
		t.Fatalf("a first carve mapped %d bytes, want %d", got, arenaMinSlab*sizeInt32)
	}
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("fresh mapping reads %d at %d", v, i)
		}
	}
}
