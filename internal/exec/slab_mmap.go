//go:build (linux || darwin) && !race

package exec

import (
	"syscall"
	"unsafe"
)

// newSlab returns an empty slab with capacity n, mapped anonymous and
// private outside the Go heap: the runtime neither zeroes it (the
// kernel hands out zero pages on first touch), nor scans it, nor counts
// it toward the GC goal. It holds no pointers, so nothing the collector
// must see lives there. A pooled arena keeps the mapping for the life
// of the process. If the mapping fails the slab comes from make.
func newSlab[T int32 | float64](n int) []T {
	b, err := syscall.Mmap(-1, 0, n*elemSize[T](), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]T, 0, n)
	}
	mappedBytes.Add(int64(len(b)))
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)[:0]
}

// recycle does nothing to a slab being rewound here; the race build
// poisons it instead (slab_heap.go).
func recycle[T int32 | float64]([]T) {}
