package exec

import (
	"sync"
	"sync/atomic"
)

// Arena is the engine's numeric slab allocator: int32 and float64
// chunks are carved from geometrically sized slabs, so a job's scratch
// costs O(slabs) allocations instead of O(carves). Chunks are never
// freed individually — an outgrown buffer is abandoned inside its slab
// (bounded waste: slab sizes grow geometrically, so total slab volume
// is a constant factor of the carve volume).
//
// Arenas are single-goroutine, like the kernel scratch that uses them
// (one arena per worker). Pooled arenas come from Grant.Checkout and
// return to the process pool on Grant.Release with their largest slab
// retained, so steady-state server traffic reuses slabs instead of
// re-growing them per job.
type Arena struct {
	i32 numSlab[int32]
	f64 numSlab[float64]
}

const (
	arenaMinSlab = 8 << 10 // first slab: 8192 elements (the pre-engine slab size)
	arenaMaxSlab = 1 << 20 // slab growth cap: 1M elements
	sizeInt32    = 4       // unsafe.Sizeof, spelled out
	sizeFloat64  = 8
)

// numSlab carves fixed-type chunks out of a current slab, replacing it
// with a geometrically larger one when full. The largest backing array
// ever owned is remembered so Reset can reuse it.
type numSlab[T int32 | float64] struct {
	cur    []T
	big    []T // slab with the largest capacity seen (may hold live data until Reset)
	class  int // size of the next slab to allocate
	carved int // elements carved since the last Reset
}

func (s *numSlab[T]) carve(c int) []T {
	if cap(s.cur)-len(s.cur) < c {
		size := s.class
		if size < arenaMinSlab {
			size = arenaMinSlab
		}
		for size < c {
			size <<= 1
		}
		if size < arenaMaxSlab {
			s.class = size << 1
		} else {
			s.class = arenaMaxSlab
		}
		if cap(s.cur) > cap(s.big) {
			s.big = s.cur
		}
		s.cur = make([]T, 0, size)
	}
	n := len(s.cur)
	out := s.cur[n : n : n+c]
	s.cur = s.cur[: n+c : cap(s.cur)]
	s.carved += c
	return out
}

// reset abandons every carved chunk and keeps only the largest backing
// array for reuse. Caller guarantees no carved chunk is still live.
func (s *numSlab[T]) reset() {
	if cap(s.cur) > cap(s.big) {
		s.big = s.cur
	}
	s.cur = s.big[:0]
	s.carved = 0
}

// NewArena returns an empty, unpooled arena. Kernels running without a
// grant use one; its slabs die with it.
func NewArena() *Arena { return &Arena{} }

// Int32s carves a zero-length int32 chunk with capacity c.
func (a *Arena) Int32s(c int) []int32 { return a.i32.carve(c) }

// Float64s carves a zero-length float64 chunk with capacity c.
func (a *Arena) Float64s(c int) []float64 { return a.f64.carve(c) }

// AppendInt32s carves an exact-size copy of src.
func (a *Arena) AppendInt32s(src []int32) []int32 {
	return append(a.i32.carve(len(src)), src...)
}

// CarvedBytes is the byte volume carved since the arena was (re)issued —
// the per-job scratch high-water mark the exec metrics report.
func (a *Arena) CarvedBytes() int {
	return a.i32.carved*sizeInt32 + a.f64.carved*sizeFloat64
}

// Reset abandons all carved chunks, keeping the largest slab of each
// type for reuse. The owner must drop every carved reference first.
func (a *Arena) Reset() {
	recordArenaHighwater(a.CarvedBytes())
	a.i32.reset()
	a.f64.reset()
}

// --- process pool ---

var arenaPool = sync.Pool{New: func() any { return NewArena() }}

func getArena() *Arena {
	execArenaCheckouts.Inc()
	return arenaPool.Get().(*Arena)
}

func putArena(a *Arena) {
	a.Reset()
	arenaPool.Put(a)
}

// arenaHighwater is the largest per-job carve volume seen, in bytes,
// exported as structmine_exec_arena_highwater_bytes.
var arenaHighwater atomic.Int64

func recordArenaHighwater(bytes int) {
	for {
		old := arenaHighwater.Load()
		if int64(bytes) <= old || arenaHighwater.CompareAndSwap(old, int64(bytes)) {
			return
		}
	}
}
