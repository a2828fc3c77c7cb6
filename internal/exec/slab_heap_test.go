//go:build race || !(linux || darwin)

package exec

import "testing"

// Heap slabs are poisoned when they are rewound: a chunk read after its
// arena's Reset reads 0xA5 bytes, not the values it held.
func TestRecycledSlabIsPoisoned(t *testing.T) {
	a := getArena()
	stale := append(a.Int32s(3), 1, 2, 3)
	fstale := append(a.Float64s(2), 1, 2)
	putArenas([]*Arena{a})
	for i, v := range stale {
		if uint32(v) != 0xA5A5A5A5 {
			t.Fatalf("stale int32 %d reads %#x after Reset, want 0xa5a5a5a5", i, uint32(v))
		}
	}
	for i, v := range fstale {
		if v == float64(i+1) {
			t.Fatalf("stale float64 %d still reads %v after Reset", i, v)
		}
	}
}
