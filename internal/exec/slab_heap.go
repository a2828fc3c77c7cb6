//go:build race || !(linux || darwin)

package exec

import "unsafe"

// newSlab returns an empty heap slab with capacity n. The race detector
// does not see accesses to memory outside the Go heap, so race builds
// keep pooled slabs on the heap, as do systems without an anonymous
// mmap.
func newSlab[T int32 | float64](n int) []T { return make([]T, 0, n) }

// recycle fills the carved part of a slab that is being rewound with
// 0xA5 bytes, so that a chunk read after its arena was reset — a carve
// that outlived its grant — reads garbage, and the tests comparing
// artifacts under pooled arenas fail instead of passing by luck.
func recycle[T int32 | float64](slab []T) {
	if len(slab) == 0 {
		return
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(slab))), len(slab)*elemSize[T]())
	b[0] = 0xA5
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}
