package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// budgets reads every live grant's allotment in acquisition order.
func budgets(gs []*Grant) []int {
	out := make([]int, len(gs))
	for i, g := range gs {
		out[i] = g.Workers()
	}
	return out
}

func eq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The scheduler splits its capacity into equal shares with the
// remainder going to the earliest acquirers, and rebalances every live
// grant on each acquire and release.
func TestSchedulerFairSplits(t *testing.T) {
	s := NewScheduler(8)

	g1 := s.Acquire()
	if got := budgets([]*Grant{g1}); !eq(got, []int{8}) {
		t.Fatalf("one grant: budgets = %v, want [8]", got)
	}
	g2 := s.Acquire()
	if got := budgets([]*Grant{g1, g2}); !eq(got, []int{4, 4}) {
		t.Fatalf("two grants: budgets = %v, want [4 4]", got)
	}
	g3 := s.Acquire()
	if got := budgets([]*Grant{g1, g2, g3}); !eq(got, []int{3, 3, 2}) {
		t.Fatalf("three grants: budgets = %v, want [3 3 2]", got)
	}

	// Releasing the middle grant immediately returns its share to the
	// survivors — the heavy job's next fan-out sees the bigger budget.
	g2.Release()
	if got := budgets([]*Grant{g1, g3}); !eq(got, []int{4, 4}) {
		t.Fatalf("after release: budgets = %v, want [4 4]", got)
	}
	g1.Release()
	if got := g3.Workers(); got != 8 {
		t.Fatalf("last grant standing: Workers = %d, want 8", got)
	}
	g3.Release()
}

// Oversubscription beyond capacity degrades to a floor of one worker
// per job instead of refusing or deadlocking; admission control belongs
// to the server's worker pool.
func TestSchedulerOversubscriptionFloor(t *testing.T) {
	s := NewScheduler(2)
	gs := make([]*Grant, 5)
	for i := range gs {
		gs[i] = s.Acquire()
	}
	for i, g := range gs {
		if g.Workers() != 1 {
			t.Fatalf("grant %d: Workers = %d, want 1 under oversubscription", i, g.Workers())
		}
	}
	for _, g := range gs {
		g.Release()
	}
}

// Release is idempotent and a released grant still reports a sane
// (floor-one) budget.
func TestGrantReleaseIdempotent(t *testing.T) {
	s := NewScheduler(4)
	g := s.Acquire()
	g.Release()
	g.Release() // must not panic or double-remove
	if got := g.Workers(); got < 1 {
		t.Fatalf("released grant Workers = %d, want >= 1", got)
	}
	if g2 := s.Acquire(); g2.Workers() != 4 {
		t.Fatalf("fresh grant after double release: Workers = %d, want 4", g2.Workers())
	} else {
		g2.Release()
	}
}

// Workers resolves: fixed WithWorkers > live grant > GOMAXPROCS.
func TestWorkersResolution(t *testing.T) {
	ctx := context.Background()
	if got, want := Workers(ctx), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("bare context: Workers = %d, want GOMAXPROCS %d", got, want)
	}

	s := NewScheduler(6)
	g := s.Acquire()
	defer g.Release()
	gctx := WithGrant(ctx, g)
	if got := Workers(gctx); got != 6 {
		t.Fatalf("grant context: Workers = %d, want 6", got)
	}
	if got := Workers(WithWorkers(gctx, 3)); got != 3 {
		t.Fatalf("fixed budget overrides grant: Workers = %d, want 3", got)
	}
	if got := Workers(WithWorkers(ctx, 0)); got != 1 {
		t.Fatalf("WithWorkers(0) clamps to 1, got %d", got)
	}
}

// A grant tracks its checked-out arenas and a late checkout after
// release still returns a working arena — an unpooled one, which maps
// no slab, since nothing would ever return it to the pool.
func TestGrantCheckoutLifecycle(t *testing.T) {
	s := NewScheduler(4)
	g := s.Acquire()
	a := g.Checkout()
	buf := a.Int32s(100)
	if cap(buf) < 100 {
		t.Fatalf("carve capacity %d, want >= 100", cap(buf))
	}
	g.Release()

	retained, mapped := retainedBytes.Load(), mappedBytes.Load()
	late := g.Checkout()
	lateBuf := append(late.Float64s(8), 1, 2, 3)
	if len(lateBuf) != 3 || lateBuf[2] != 3 {
		t.Fatalf("late checkout arena is broken: %v", lateBuf)
	}
	_ = late.Int32s(arenaMaxSlab)
	if late.i32.pooled {
		t.Fatal("late checkout handed out a pooled arena")
	}
	if r, m := retainedBytes.Load(), mappedBytes.Load(); r != retained || m != mapped {
		t.Fatalf("late checkout grew the pool's slabs: retained %d -> %d, mapped %d -> %d", retained, r, mapped, m)
	}
}

// Concurrent acquire/release/read must be race-free and keep every
// observed budget within [1, capacity]. Run with -race.
func TestSchedulerConcurrentChurn(t *testing.T) {
	s := NewScheduler(4)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				g := s.Acquire()
				if w := g.Workers(); w < 1 || w > 4 {
					t.Errorf("budget %d out of [1,4]", w)
				}
				a := g.Checkout()
				_ = a.Float64s(32)
				g.Release()
			}
		}()
	}
	wg.Wait()
	if n := len(s.grants); n != 0 {
		t.Fatalf("%d grants leaked after churn", n)
	}
}

// BenchmarkFanoutOverhead measures the spawn+join cost the cutoff table
// amortizes: each fan-out below a cutoff must dwarf this number or the
// parallel path loses to the serial one. The per-kernel thresholds in
// cutoff.go target >= 10x this overhead in useful work.
func BenchmarkFanoutOverhead(b *testing.B) {
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				wg.Add(w)
				for j := 0; j < w; j++ {
					go wg.Done()
				}
				wg.Wait()
			}
		})
	}
}
