package exec

import (
	"context"
	"sync"
	"sync/atomic"
)

// Fanout is one planned fan-out over the index range [0, n): Plan reads
// the context's worker budget exactly once and the loop that follows
// runs at that width. A caller that keeps per-worker state sizes it by
// Workers() and then fans out through the same value, so a grant
// rebalanced in between (another job acquiring or releasing) can never
// hand the callback a worker index the state was not sized for.
type Fanout struct {
	k       Kernel
	n       int
	workers int
}

// Plan sizes a fan-out of n indices for the given workload: the
// context's budget capped at n, or one worker when the estimated work
// (in the kernel's own units) is below the kernel's cutoff. n ≤ 0 plans
// an empty fan-out (zero workers; its loops do nothing).
func Plan(ctx context.Context, k Kernel, n, work int) Fanout {
	if n <= 0 {
		return Fanout{k: k}
	}
	workers := Workers(ctx)
	if workers > n {
		workers = n
	}
	if work < k.Cutoff() || workers < 2 {
		workers = 1
	}
	return Fanout{k: k, n: n, workers: workers}
}

// Workers is the width the fan-out runs at — the bound on the worker
// index w its ForChunk callback can see.
func (f Fanout) Workers() int { return f.workers }

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
	Plan(ctx, k, n, work).ForChunk(func(_, lo, hi int) { fn(lo, hi) })
}

// ForChunk is For with the worker index exposed: fn(w, lo, hi) with
// 0 ≤ w < f.Workers(). It exists only on a planned Fanout, so the width
// per-worker state was sized by is the width the loop runs at. Each
// worker runs on its own goroutine (or the caller's, when serial) and
// claims chunks from a shared queue, so state indexed by w is
// worker-private for the duration of the call while skewed chunks still
// spread across idle workers. Chunks a worker executes outside its home
// range are counted as steals in structmine_exec_steals_total.
func (f Fanout) ForChunk(fn func(w, lo, hi int)) {
	n, workers, k := f.n, f.workers, f.k
	if n <= 0 {
		return
	}
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
