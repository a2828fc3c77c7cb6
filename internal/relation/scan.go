package relation

import (
	"context"
	"sync"
	"sync/atomic"

	"structmine/internal/exec"
)

// ScanStripes streams every page stripe of c through fn, fanning the
// stripes across the context's worker budget (exec.ColScan kernel).
// fn(w, p, cols) receives the worker index, the page index, and one
// decoded column per entry of attrs, each of length PageLen(p). Page
// buffers are allocated once per worker, so a full scan costs
// O(workers) page allocations regardless of page count. They are plain
// allocations, not carves from the job's pooled arenas: a scan needs a
// few pages for its own duration, and checking an arena out for them
// would hand it one of the pool's grown slabs — which the engine that
// runs next (a LIMBO tree, TANE's products) would then have to regrow.
//
// Concurrency contract: fn runs concurrently for different pages but
// never concurrently for the same w, and cols is reused across the
// pages a worker claims — fn must copy anything it retains, and any
// shared state it writes must be per-page slots (out[rowOf(p, t)]) or
// otherwise non-aliasing across pages. Pages are not visited in order.
//
// The first error (from ReadStripe or fn, lowest page index wins)
// cancels the remaining pages and is returned.
func ScanStripes(ctx context.Context, c Columns, attrs []int, fn func(w, p int, cols [][]int32) error) error {
	return PlanScan(ctx, c, attrs).Run(fn)
}

// StripeScan is one planned ScanStripes: PlanScan reads the worker
// budget once, Workers is the bound on the w that Run's callback sees —
// the size callers give per-worker accumulator state — and Run scans at
// exactly that width even if the job's grant is rebalanced in between.
type StripeScan struct {
	c     Columns
	attrs []int
	plan  exec.Fanout
}

// PlanScan plans a scan of c over the given attributes (zero workers
// when there is nothing to scan).
func PlanScan(ctx context.Context, c Columns, attrs []int) StripeScan {
	pages := c.NumPages()
	if len(attrs) == 0 {
		pages = 0
	}
	return StripeScan{c: c, attrs: attrs, plan: exec.Plan(ctx, exec.ColScan, pages, c.N()*len(attrs))}
}

// Workers is the number of workers Run fans the stripes across.
func (s StripeScan) Workers() int { return s.plan.Workers() }

// Run is ScanStripes at the planned width.
func (s StripeScan) Run(fn func(w, p int, cols [][]int32) error) error {
	c, attrs := s.c, s.attrs
	dsts := make([][][]int32, s.Workers())
	var (
		mu   sync.Mutex
		errP = -1
		err  error
		bail atomic.Bool
	)
	s.plan.ForChunk(func(w, lo, hi int) {
		if dsts[w] == nil {
			bufs := make([][]int32, len(attrs))
			for i := range bufs {
				bufs[i] = make([]int32, c.PageRows())
			}
			dsts[w] = bufs
		}
		for p := lo; p < hi; p++ {
			if bail.Load() {
				return
			}
			cols, e := c.ReadStripe(p, attrs, dsts[w])
			if e == nil {
				dsts[w] = cols
				e = fn(w, p, cols)
			}
			if e != nil {
				mu.Lock()
				if errP < 0 || p < errP {
					errP, err = p, e
				}
				mu.Unlock()
				bail.Store(true)
				return
			}
		}
	})
	return err
}
