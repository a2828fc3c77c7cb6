package exec

import "testing"

// Chunks carved from one arena never alias: every chunk keeps its own
// values no matter how many carves (and slab replacements) follow.
func TestArenaCarveDisjoint(t *testing.T) {
	a := NewArena()
	const chunks = 300
	i32 := make([][]int32, chunks)
	f64 := make([][]float64, chunks)
	for i := 0; i < chunks; i++ {
		c := 1 + (i*37)%150 // varied sizes straddling slab boundaries
		i32[i] = a.Int32s(c)
		f64[i] = a.Float64s(c)
		for j := 0; j < c; j++ {
			i32[i] = append(i32[i], int32(i))
			f64[i] = append(f64[i], float64(i))
		}
	}
	for i := range i32 {
		for j := range i32[i] {
			if i32[i][j] != int32(i) || f64[i][j] != float64(i) {
				t.Fatalf("chunk %d slot %d clobbered: %d / %v", i, j, i32[i][j], f64[i][j])
			}
		}
	}
	if a.CarvedBytes() == 0 {
		t.Fatal("CarvedBytes = 0 after carving")
	}
}

// A carved chunk's append beyond capacity migrates to fresh memory
// instead of clobbering the neighbor carved right after it.
func TestArenaCarveCapacityIsHard(t *testing.T) {
	a := NewArena()
	x := a.Int32s(4)
	y := append(a.Int32s(4), 7, 7, 7, 7)
	x = append(x, 1, 2, 3, 4, 5) // one past capacity: must reallocate
	_ = x
	for i, v := range y {
		if v != 7 {
			t.Fatalf("neighbor chunk clobbered at %d: %d", i, v)
		}
	}
}

// Reset keeps every slab, and a carve sequence repeated after it lands
// in the slabs it filled the first time: a steady-state reuse cycle
// adds no slab, whatever mix of small and oversized carves it makes.
func TestArenaResetReplaysIntoKeptSlabs(t *testing.T) {
	for _, a := range []*Arena{NewArena(), getArena()} {
		carves := func() {
			for i := 0; i < 40; i++ {
				_ = a.Float64s(1 + (i*977)%(3*arenaMinSlab))
				_ = a.Int32s(1 + (i*131)%arenaMinSlab)
			}
			_ = a.Int32s(arenaMaxSlab + 1)
		}
		carves()
		slabs, retained := len(a.i32.slabs)+len(a.f64.slabs), retainedBytes.Load()
		if slabs < 4 {
			t.Fatalf("pooled=%v: carves used %d slabs, want several", a.i32.pooled, slabs)
		}
		for round := 0; round < 3; round++ {
			a.Reset()
			if a.CarvedBytes() != 0 {
				t.Fatalf("CarvedBytes = %d after Reset, want 0", a.CarvedBytes())
			}
			carves()
			if got := len(a.i32.slabs) + len(a.f64.slabs); got != slabs {
				t.Fatalf("pooled=%v round %d: %d slabs after a repeated carve sequence, want %d", a.i32.pooled, round, got, slabs)
			}
		}
		if a.i32.pooled {
			if got := retainedBytes.Load(); got != retained {
				t.Fatalf("repeated carves grew the retained slab bytes %d -> %d", retained, got)
			}
			putArenas([]*Arena{a})
		}
	}
}

// Append helpers carve exact-size copies that do not alias the source.
func TestArenaAppendCopies(t *testing.T) {
	a := NewArena()
	src := []int32{1, 2, 3}
	cp := a.AppendInt32s(src)
	src[0] = 99
	if cp[0] != 1 || len(cp) != 3 {
		t.Fatalf("AppendInt32s aliases its source: %v", cp)
	}
}

// The pool round-trips arenas through Reset: a returned arena comes
// back empty and usable, and a job's arenas come back in the order it
// checked them out.
func TestArenaPoolRoundTrip(t *testing.T) {
	a, b := getArena(), getArena()
	_ = a.Int32s(1000)
	putArenas([]*Arena{a, b})
	if a2, b2 := getArena(), getArena(); a2 != a || b2 != b {
		t.Fatal("the pool did not hand the arenas back in checkout order")
	}
	if a.CarvedBytes() != 0 {
		t.Fatalf("pooled arena not reset: CarvedBytes = %d", a.CarvedBytes())
	}
	buf := append(a.Int32s(4), 1, 2, 3, 4)
	if len(buf) != 4 {
		t.Fatalf("pooled arena carve broken: %v", buf)
	}
	putArenas([]*Arena{a, b})
}

// Structs hands out stable pointers and disjoint slices: growing the
// slab never moves or clobbers earlier carves.
func TestStructsStableAndDisjoint(t *testing.T) {
	type pair struct{ a, b int }
	var s Structs[pair]
	ptrs := make([]*pair, 0, 3*structsMinSlab)
	for i := 0; i < 3*structsMinSlab; i++ {
		p := s.New()
		p.a, p.b = i, -i
		ptrs = append(ptrs, p)
	}
	for i, p := range ptrs {
		if p.a != i || p.b != -i {
			t.Fatalf("struct %d moved or clobbered: %+v", i, *p)
		}
	}
	x := s.Slice(10)
	y := append(s.Slice(10), pair{7, 7})
	x = append(x, pair{1, 1}, pair{2, 2})
	_ = x
	if y[0].a != 7 {
		t.Fatalf("slices alias: %+v", y[0])
	}
}

// Oversized requests (beyond the max slab class) still succeed with a
// dedicated slab.
func TestArenaOversizedCarve(t *testing.T) {
	a := NewArena()
	huge := a.Int32s(arenaMaxSlab + 1)
	if cap(huge) < arenaMaxSlab+1 {
		t.Fatalf("oversized carve capacity %d", cap(huge))
	}
	var s Structs[int64]
	big := s.Slice(structsMaxSlab * 2)
	if cap(big) < structsMaxSlab*2 {
		t.Fatalf("oversized struct carve capacity %d", cap(big))
	}
}

// Every kernel below numKernels has a row in both tables: a positive
// cutoff (a missing row reads 0 and would fan out at any work) and a
// non-empty name no other kernel shares (the steal metric's label).
func TestEveryKernelHasACutoffAndName(t *testing.T) {
	seen := make(map[string]Kernel, numKernels)
	for k := Kernel(0); k < numKernels; k++ {
		if k.Cutoff() <= 0 {
			t.Errorf("kernel %s has cutoff %d", k, k.Cutoff())
		}
		name := k.String()
		if name == "" {
			t.Errorf("kernel %d has no name", k)
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kernels %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
}
