// Package exec is the process-wide execution engine behind every
// CPU-bound fan-out in the miner. It has three shared pieces:
//
//   - worker budgets: a fair Scheduler hands each running job a Grant
//     carrying the number of workers its parallel loops may use. Budgets
//     are rebalanced on every acquire/release, so a heavy job's fan-out
//     shrinks the moment smaller jobs arrive and grows back when they
//     finish. Kernels read the budget through the context (Workers), so
//     the same code serves budgeted server jobs, fixed-budget tests
//     (WithWorkers), and standalone library callers (GOMAXPROCS).
//
//   - pooled arenas: size-classed numeric slab allocators (Arena)
//     checked out per job and recycled through a process pool on
//     release with every slab kept, plus a generic struct-slab
//     allocator (Structs) for the typed carving the kernels do. Pooled
//     slabs are mapped outside the Go heap where the build allows
//     (slab_mmap.go), so a job's numeric scratch is neither zeroed nor
//     scanned by the runtime. Scratch memory across concurrent jobs is
//     bounded by the pool instead of growing one private arena per
//     kernel instance.
//
//   - one fan-out: Plan (for.go) reads the context's budget once and
//     its For/ForChunk partition an index range at that width, go
//     parallel only above the per-kernel calibrated cutoff (cutoff.go),
//     and hand chunks out by work-stealing so a skewed chunk cannot
//     serialize the tail.
//
// Determinism contract: budgets only decide how index ranges are
// partitioned, never what is computed per index. Every kernel in this
// repo writes per-index results into preallocated slots and reduces
// serially, so results are bit-identical for any budget — the
// parallel-vs-serial property suites pin this at budgets {1, 2, 4, 8}.
//
// Aliasing contract: memory carved from a checked-out Arena is scratch.
// It may be referenced freely while the job runs, but must never be
// reachable from a job's result (results are freshly allocated
// JSON-serializable structs), because Release returns the slabs to the
// pool for the next job to overwrite. Race builds fill every rewound
// slab with 0xA5 bytes, so a break shows as a wrong artifact in
// task.TestNoCarveOutlivesGrant.
package exec

import (
	"context"
	"runtime"
)

type ctxKey int

const (
	grantKey ctxKey = iota
	workersKey
)

// WithGrant attaches a scheduler grant to the context; the kernels under
// this context size their fan-outs with the grant's live budget.
func WithGrant(ctx context.Context, g *Grant) context.Context {
	return context.WithValue(ctx, grantKey, g)
}

// GrantFrom returns the context's grant, if one is attached.
func GrantFrom(ctx context.Context) (*Grant, bool) {
	g, ok := ctx.Value(grantKey).(*Grant)
	return g, ok
}

// WithWorkers attaches a fixed worker budget to the context, overriding
// any grant. Tests use it to sweep budgets deterministically; callers
// embedding the miner can use it to cap a library call's parallelism.
func WithWorkers(ctx context.Context, n int) context.Context {
	if n < 1 {
		n = 1
	}
	return context.WithValue(ctx, workersKey, n)
}

// Workers resolves the context's worker budget: a fixed WithWorkers
// value wins, then a live grant's current allotment, then GOMAXPROCS
// (the standalone-caller fallback, matching the pre-engine behavior).
func Workers(ctx context.Context) int {
	if ctx != nil {
		if n, ok := ctx.Value(workersKey).(int); ok {
			return n
		}
		if g, ok := GrantFrom(ctx); ok {
			return g.Workers()
		}
	}
	return runtime.GOMAXPROCS(0)
}

// CheckoutArena returns a pooled arena tracked by the context's grant
// (recycled when the job releases its grant), or a private unpooled
// arena for standalone callers, whose slabs are simply garbage
// collected with their owner.
func CheckoutArena(ctx context.Context) *Arena {
	if ctx != nil {
		if g, ok := GrantFrom(ctx); ok {
			return g.Checkout()
		}
	}
	return NewArena()
}
