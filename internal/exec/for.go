package exec

import (
	"context"
	"sync"
	"sync/atomic"
)

// For partitions the index range [0, n) across the context's worker
// budget and invokes fn(lo, hi) on each chunk concurrently, returning
// when every index is covered. When the estimated work (in the kernel's
// own units) is below the kernel's cutoff, or the budget is one worker,
// fn runs once on the caller's goroutine as fn(0, n) — no goroutines
// are spawned.
//
// fn must be safe to run concurrently on disjoint ranges: writes must go
// to per-index slots (out[i]) or otherwise not alias across chunks.
// Determinism note: For only partitions the index space; callers that
// need deterministic results must make fn(i) independent of chunk
// boundaries, which every call site in this repo does (pure per-index
// computation into a preallocated slice).
func For(ctx context.Context, k Kernel, n, work int, fn func(lo, hi int)) {
	ForChunk(ctx, k, n, work, func(_, lo, hi int) { fn(lo, hi) })
}

// NumWorkers returns how many workers ForChunk will use for the given
// workload — the bound on the worker index w its callback can see.
// Callers that keep per-worker scratch state (e.g. TANE's probe tables)
// size their scratch slice with it before fanning out, so the workers
// only ever index, never grow, shared state.
func NumWorkers(ctx context.Context, k Kernel, n, work int) int {
	if n <= 0 {
		return 0
	}
	workers := Workers(ctx)
	if workers > n {
		workers = n
	}
	if work < k.Cutoff() || workers < 2 {
		return 1
	}
	return workers
}

// ForChunk is For with the worker index exposed: fn(w, lo, hi) with
// 0 ≤ w < NumWorkers(ctx, k, n, work). Each worker runs on its own
// goroutine (or the caller's, when serial) and claims chunks from a
// shared queue, so state indexed by w is worker-private for the
// duration of the call while skewed chunks still spread across idle
// workers. Chunks a worker executes outside its home range are counted
// as steals in structmine_exec_steals_total.
func ForChunk(ctx context.Context, k Kernel, n, work int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := NumWorkers(ctx, k, n, work)
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	// Work-stealing handout: split the range into stealGrain chunks per
	// worker, claimed off one atomic counter. Claims are in index order,
	// so a worker that finishes its share early continues into a slower
	// peer's range instead of idling at the barrier.
	numChunks := workers * stealGrain
	if numChunks > n {
		numChunks = n
	}
	chunk := (n + numChunks - 1) / numChunks
	numChunks = (n + chunk - 1) / chunk
	perWorker := (numChunks + workers - 1) / workers

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			steals := 0
			for {
				c := int(next.Add(1)) - 1
				if c >= numChunks {
					break
				}
				if c/perWorker != w {
					steals++
				}
				lo := c * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(w, lo, hi)
			}
			countSteals(k, steals)
		}(w)
	}
	wg.Wait()
}
