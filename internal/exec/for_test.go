package exec_test

import (
	"context"
	"sync"
	"testing"

	"structmine/internal/exec"
	"structmine/internal/exec/exectest"
)

// coverage runs For under a fixed budget and records how many times
// each index was visited.
func coverage(t *testing.T, budget, n, work int) []int32 {
	t.Helper()
	ctx := exec.WithWorkers(context.Background(), budget)
	hits := make([]int32, n)
	var mu sync.Mutex
	exec.For(ctx, exec.ColScan, n, work, func(lo, hi int) {
		if lo < 0 || hi > n || lo > hi {
			t.Errorf("bad range [%d, %d) for n=%d", lo, hi, n)
		}
		mu.Lock()
		for i := lo; i < hi; i++ {
			hits[i]++
		}
		mu.Unlock()
	})
	return hits
}

func assertEachOnce(t *testing.T, hits []int32) {
	t.Helper()
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestForCoversRangeSerial(t *testing.T) {
	// work below the cutoff forces the serial path.
	assertEachOnce(t, coverage(t, 4, 100, 1))
}

func TestForCoversRangeParallel(t *testing.T) {
	for _, budget := range []int{1, 2, 4, 8} {
		assertEachOnce(t, coverage(t, budget, 10_001, exec.ColScan.Cutoff()*10))
	}
}

func TestForEmptyAndTiny(t *testing.T) {
	ctx := exec.WithWorkers(context.Background(), 4)
	big := exec.ColScan.Cutoff() * 10
	called := false
	exec.For(ctx, exec.ColScan, 0, big, func(lo, hi int) { called = true })
	if called {
		t.Fatal("fn invoked for n=0")
	}
	exec.For(ctx, exec.ColScan, -3, big, func(lo, hi int) { called = true })
	if called {
		t.Fatal("fn invoked for n<0")
	}
	// n smaller than the worker budget still covers every index once.
	assertEachOnce(t, coverage(t, 8, 3, big))
}

func TestForParallelWritesDisjointSlots(t *testing.T) {
	ctx := exec.WithWorkers(context.Background(), 4)
	n := 50_000
	out := make([]int, n)
	exec.For(ctx, exec.ColScan, n, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = i * i
		}
	})
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestForChunkWorkerIndexBounded pins the per-worker scratch contract:
// every w seen by the callback is in [0, Workers()) and two goroutines
// never share a w concurrently (checked via a per-w owner slot).
func TestForChunkWorkerIndexBounded(t *testing.T) {
	ctx := exec.WithWorkers(context.Background(), 4)
	n := 40_000
	plan := exec.Plan(ctx, exec.ColScan, n, n)
	workers := plan.Workers()
	if workers != 4 {
		t.Fatalf("Workers = %d, want 4", workers)
	}
	busy := make([]sync.Mutex, workers)
	covered := make([]int32, n)
	var mu sync.Mutex
	plan.ForChunk(func(w, lo, hi int) {
		if w < 0 || w >= workers {
			t.Errorf("worker index %d out of [0, %d)", w, workers)
			return
		}
		if !busy[w].TryLock() {
			t.Errorf("worker index %d used concurrently", w)
			return
		}
		defer busy[w].Unlock()
		mu.Lock()
		for i := lo; i < hi; i++ {
			covered[i]++
		}
		mu.Unlock()
	})
	assertEachOnce(t, covered)
}

// TestNumWorkersRespectsBudget: the context budget, not GOMAXPROCS,
// decides the fan-out width (the pre-engine behavior read GOMAXPROCS
// directly, so concurrent jobs oversubscribed cores).
func TestNumWorkersRespectsBudget(t *testing.T) {
	big := exec.ColScan.Cutoff() * 10
	for _, budget := range []int{1, 2, 4, 8} {
		ctx := exec.WithWorkers(context.Background(), budget)
		if got := exec.Plan(ctx, exec.ColScan, 1<<20, big).Workers(); got != budget {
			t.Fatalf("budget %d: Workers = %d", budget, got)
		}
	}
	// Below the cutoff the fan-out is always serial.
	ctx := exec.WithWorkers(context.Background(), 8)
	if got := exec.Plan(ctx, exec.ColScan, 1<<20, exec.ColScan.Cutoff()-1).Workers(); got != 1 {
		t.Fatalf("below-cutoff Workers = %d, want 1", got)
	}
}

// TestPlanSurvivesRebalance pins the one-read contract at the root: a
// Fanout runs at the width it was planned at, so state sized by
// Workers() covers every w the callback sees even while other jobs'
// acquires and releases keep rebalancing the grant underneath.
func TestPlanSurvivesRebalance(t *testing.T) {
	ctx := exectest.RebalancingContext(t)
	n := 40_000
	for i := 0; i < 200; i++ {
		plan := exec.Plan(ctx, exec.ColScan, n, n)
		covered := make([]int, plan.Workers())
		plan.ForChunk(func(w, lo, hi int) { covered[w] += hi - lo })
		total := 0
		for _, c := range covered {
			total += c
		}
		if total != n {
			t.Fatalf("round %d: covered %d of %d indices at width %d", i, total, n, plan.Workers())
		}
	}
}
