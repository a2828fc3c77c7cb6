package exec

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Arena is the engine's numeric slab allocator: int32 and float64
// chunks are carved from geometrically sized slabs, so a job's scratch
// costs O(slabs) allocations instead of O(carves). Chunks are never
// freed individually — an outgrown buffer is abandoned inside its slab
// (bounded waste: slab sizes grow geometrically, so total slab volume
// is a constant factor of the carve volume).
//
// Arenas are single-goroutine, like the kernel scratch that uses them
// (one arena per worker). Pooled arenas come from Grant.Checkout, carve
// from slabs outside the Go heap where the build supports it (newSlab),
// and return to the process pool on Grant.Release with every slab
// kept, so steady-state server traffic carves the same slabs job after
// job instead of allocating, zeroing and collecting them.
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

// numSlab carves fixed-type chunks out of the slabs it owns, adding a
// geometrically larger one when none has room. It keeps every slab:
// reset rewinds them all, and carving fills them again from the first.
type numSlab[T int32 | float64] struct {
	slabs  [][]T // every slab owned; len is the part carved since the last reset
	cur    int   // the slab the next carve tries first
	class  int   // size of the next slab to allocate
	carved int   // elements carved since the last reset
	pooled bool  // slabs come from newSlab and count as retained
}

func (s *numSlab[T]) carve(c int) []T {
	if s.cur >= len(s.slabs) || cap(s.slabs[s.cur])-len(s.slabs[s.cur]) < c {
		s.cur = s.room(c)
	}
	slab := s.slabs[s.cur]
	n := len(slab)
	s.slabs[s.cur] = slab[:n+c]
	s.carved += c
	return slab[n : n : n+c]
}

// room returns the first slab with room for c elements, adding one
// when none has. Because the search runs in slab order and new slabs
// go last, a carve sequence repeated after reset lands in the same
// slabs it did the first time and adds none.
func (s *numSlab[T]) room(c int) int {
	for i, slab := range s.slabs {
		if cap(slab)-len(slab) >= c {
			return i
		}
	}
	size := max(s.class, arenaMinSlab)
	for size < c {
		size <<= 1
	}
	s.class = min(size<<1, arenaMaxSlab)
	if s.pooled {
		slab := newSlab[T](size)
		retainedBytes.Add(int64(cap(slab) * elemSize[T]()))
		s.slabs = append(s.slabs, slab)
	} else {
		s.slabs = append(s.slabs, make([]T, 0, size))
	}
	return len(s.slabs) - 1
}

// reset abandons every carved chunk and rewinds to the first slab.
// Caller guarantees no carved chunk is still live.
func (s *numSlab[T]) reset() {
	for i, slab := range s.slabs {
		recycle(slab)
		s.slabs[i] = slab[:0]
	}
	s.cur, s.carved = 0, 0
}

// elemSize is unsafe.Sizeof of one T.
func elemSize[T int32 | float64]() int {
	var zero T
	return int(unsafe.Sizeof(zero))
}

// NewArena returns an empty, unpooled arena. Kernels running without a
// grant use one; its slabs are on the Go heap and die with it.
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

// Reset abandons all carved chunks, keeping every slab for reuse. The
// owner must drop every carved reference first.
func (a *Arena) Reset() {
	recordArenaHighwater(a.CarvedBytes())
	a.i32.reset()
	a.f64.reset()
}

// --- process pool ---

// arenaPool is a last-in-first-out free list of pooled arenas. An
// arena is created only when the list is empty, so the pool never holds
// more arenas than were ever checked out at once, and the slab memory
// it retains is bounded by the largest concurrent carve volume.
var arenaPool struct {
	mu   sync.Mutex
	free []*Arena
}

func getArena() *Arena {
	execArenaCheckouts.Inc()
	arenaPool.mu.Lock()
	defer arenaPool.mu.Unlock()
	if n := len(arenaPool.free); n > 0 {
		a := arenaPool.free[n-1]
		arenaPool.free = arenaPool.free[:n-1]
		return a
	}
	return &Arena{i32: numSlab[int32]{pooled: true}, f64: numSlab[float64]{pooled: true}}
}

// putArenas resets a job's arenas and returns them to the pool, pushed
// so that the next job's checkouts pop them in the order this one
// checked them out: a repeated job carves each arena as it did before.
func putArenas(arenas []*Arena) {
	for _, a := range arenas {
		a.Reset()
	}
	arenaPool.mu.Lock()
	defer arenaPool.mu.Unlock()
	for i := len(arenas) - 1; i >= 0; i-- {
		arenaPool.free = append(arenaPool.free, arenas[i])
	}
}

var (
	// arenaHighwater is the largest per-job carve volume seen, in bytes,
	// exported as structmine_exec_arena_highwater_bytes.
	arenaHighwater atomic.Int64
	// retainedBytes is the slab volume the pooled arenas hold; pooled
	// slabs are never freed, so it only grows, and only while the peak
	// concurrent carve does.
	retainedBytes atomic.Int64
	// mappedBytes is the part of retainedBytes mapped outside the Go
	// heap (newSlab).
	mappedBytes atomic.Int64
)

func recordArenaHighwater(bytes int) {
	for {
		old := arenaHighwater.Load()
		if int64(bytes) <= old || arenaHighwater.CompareAndSwap(old, int64(bytes)) {
			return
		}
	}
}
