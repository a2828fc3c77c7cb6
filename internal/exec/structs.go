package exec

// Structs is the typed counterpart of Arena: a slab allocator for one
// struct (or pointer) type, carved the same way LIMBO's node/entry/DCF
// slabs and AIB's pair scratch used to be, but shared as one
// implementation. Unlike Arena it is not pooled — a T may hold
// pointers, so its slabs must stay on the Go heap where the collector
// sees them — so a Structs lives exactly as long as its owner and its
// slabs are garbage collected with it.
//
// Single-goroutine, like the kernel state that embeds it.
type Structs[T any] struct {
	cur   []T
	class int
}

const (
	structsMinSlab = 256 // the pre-engine struct slab size
	structsMaxSlab = 1 << 16
)

func (s *Structs[T]) grow(c int) {
	size := s.class
	if size < structsMinSlab {
		size = structsMinSlab
	}
	for size < c {
		size <<= 1
	}
	if size < structsMaxSlab {
		s.class = size << 1
	} else {
		s.class = structsMaxSlab
	}
	s.cur = make([]T, 0, size)
}

// New carves one zeroed T.
func (s *Structs[T]) New() *T {
	if len(s.cur) == cap(s.cur) {
		s.grow(1)
	}
	s.cur = s.cur[:len(s.cur)+1]
	return &s.cur[len(s.cur)-1]
}

// Slice carves a zero-length chunk with capacity c.
func (s *Structs[T]) Slice(c int) []T {
	if cap(s.cur)-len(s.cur) < c {
		s.grow(c)
	}
	n := len(s.cur)
	out := s.cur[n : n : n+c]
	s.cur = s.cur[: n+c : cap(s.cur)]
	return out
}
