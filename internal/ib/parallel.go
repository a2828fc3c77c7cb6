package ib

import (
	"context"
	"sort"

	"structmine/internal/exec"
	"structmine/internal/it"
)

// Heap-compaction policy: the lazy-deletion queue is rebuilt without
// stale entries whenever its length exceeds compactFactor times the live
// candidate count plus compactMinLen. The additive floor keeps small runs
// (attribute grouping at q ≈ 20) from ever paying the rebuild; the
// multiplicative bound caps resident memory at O(live) + O(q) on large
// runs instead of the O(q²) the unbounded queue reaches.
const (
	compactFactor = 2
	compactMinLen = 1 << 10
)

// testHookCompact, when non-nil, observes every compaction with the heap
// length before and after the rebuild. Set only by tests.
var testHookCompact func(before, after int)

// cluster is the engine's working summary of a dendrogram node: its mass
// p(c) and conditional p(T|c).
type cluster struct {
	p    float64
	cond it.Vec
}

// engine holds the mutable state of one agglomerative run. The serial
// reference in serial.go mirrors this logic with plain loops; property
// tests assert the two produce bit-identical merge sequences.
type engine struct {
	ctx        context.Context // carries the worker budget for every fan-out
	clusters   []cluster
	alive      []bool
	aliveCount int
	h          minHeap[pairItem]
	mem        exec.Structs[pairItem] // slab behind the candidate buffers
	scratch    []pairItem             // per-merge candidate buffer, reused across steps
	ids        []int                  // alive-id list scratch, reused across steps
}

func newEngine(ctx context.Context, objects []Object) *engine {
	q := len(objects)
	e := &engine{
		ctx:        ctx,
		clusters:   make([]cluster, q, 2*q-1),
		alive:      make([]bool, q, 2*q-1),
		aliveCount: q,
		h:          minHeap[pairItem]{less: lessPair},
	}
	for i, o := range objects {
		e.clusters[i] = cluster{p: o.P, cond: o.Cond}
		e.alive[i] = true
	}
	e.buildInitialCandidates()
	return e
}

// buildInitialCandidates computes δI for all q(q−1)/2 initial pairs into
// one preallocated slice — the pair space is flattened so exec.For can
// hand each worker an equally sized contiguous range regardless of row
// lengths — then establishes the heap invariant with a single O(q²)
// bottom-up init instead of q²/2 serial pushes (O(q² log q)).
//
// Determinism: each slot k holds the δI of a fixed (i, j) pair computed
// from inputs no worker mutates, so the resulting candidate multiset is
// identical for any worker count; pops then surface candidates in the
// strict (loss, a, b) total order regardless of heap layout.
func (e *engine) buildInitialCandidates() {
	q := len(e.clusters)
	total := q * (q - 1) / 2
	items := e.mem.Slice(total)[:total]
	// rowStart[i] is the flat index of pair (i, i+1); row i holds pairs
	// (i, i+1) .. (i, q−1).
	rowStart := make([]int, q)
	off := 0
	for i := 0; i < q; i++ {
		rowStart[i] = off
		off += q - 1 - i
	}
	exec.For(e.ctx, exec.AIBPairs, total, total, func(lo, hi int) {
		// Locate the (i, j) pair at flat index lo, then walk forward.
		i := sort.Search(q, func(r int) bool { return rowStart[r] > lo }) - 1
		j := i + 1 + (lo - rowStart[i])
		for k := lo; k < hi; k++ {
			items[k] = pairItem{
				loss: it.DeltaI(e.clusters[i].p, e.clusters[i].cond, e.clusters[j].p, e.clusters[j].cond),
				a:    i, b: j,
			}
			j++
			if j == q {
				i++
				j = i + 1
			}
		}
	})
	e.h.items = items
	e.h.init()
}

// popLive discards stale candidates until one with both endpoints alive
// surfaces.
func (e *engine) popLive() (pairItem, bool) {
	for e.h.len() > 0 {
		top := e.h.pop()
		if e.alive[top.a] && e.alive[top.b] {
			return top, true
		}
	}
	return pairItem{}, false
}

// step performs one merge: pops the best live pair, materializes the
// merged cluster, records the merge on res, and enqueues fresh candidates
// against every alive cluster. Returns false when no live candidate
// remains (defensive; cannot happen with >1 alive cluster).
func (e *engine) step(res *Result) bool {
	top, ok := e.popLive()
	if !ok {
		return false
	}
	c1, c2 := e.clusters[top.a], e.clusters[top.b]
	pStar := c1.p + c2.p
	var cond it.Vec
	if pStar > 0 {
		cond = it.Mix(c1.p/pStar, c1.cond, c2.p/pStar, c2.cond)
	}
	node := len(e.clusters)
	e.clusters = append(e.clusters, cluster{p: pStar, cond: cond})
	e.alive[top.a], e.alive[top.b] = false, false
	e.alive = append(e.alive, true)
	res.parent[top.a], res.parent[top.b] = node, node
	res.parent = append(res.parent, -1)
	e.aliveCount--
	res.Merges = append(res.Merges, Merge{
		Left: top.a, Right: top.b, Node: node, Loss: top.loss, K: e.aliveCount,
	})
	e.pushMergeCandidates(node)
	e.maybeCompact()
	aibMerges.Inc()
	aibHeapSize.Set(int64(e.h.len()))
	return true
}

// pushMergeCandidates recomputes δI(id, node) for every alive cluster —
// the per-step O(q) hot loop — concurrently into a reused scratch buffer,
// then bulk-appends the results with O(log n) sifts. δI is evaluated with
// the older node as the first argument, exactly as the serial engine
// does, so the floating-point results are bit-identical.
func (e *engine) pushMergeCandidates(node int) {
	ids := e.ids[:0]
	for id := 0; id < node; id++ {
		if e.alive[id] {
			ids = append(ids, id)
		}
	}
	e.ids = ids
	if len(ids) == 0 {
		return
	}
	if cap(e.scratch) < len(ids) {
		e.scratch = e.mem.Slice(len(ids))
	}
	buf := e.scratch[:len(ids)]
	nc := e.clusters[node]
	// Work estimate: each δI walks the merged conditional's support,
	// which dominates the pairing cost.
	exec.For(e.ctx, exec.AIBRecompute, len(ids), len(ids)*(len(nc.cond)+1), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			c := e.clusters[ids[k]]
			buf[k] = pairItem{
				loss: it.DeltaI(c.p, c.cond, nc.p, nc.cond),
				a:    ids[k], b: node,
			}
		}
	})
	for _, x := range buf {
		e.h.push(x)
	}
}

// maybeCompact rebuilds the heap without stale entries once they dominate.
// Every unordered pair of alive nodes sits in the heap exactly once (a
// pair is pushed when its younger endpoint is created and popped only to
// be merged), so the live count is exactly aliveCount·(aliveCount−1)/2;
// everything beyond it is stale. The rebuild copies survivors into a
// right-sized allocation so the old O(q²) backing array becomes
// collectable. Compaction removes only entries lazy deletion would have
// skipped on pop, so the pop sequence — hence the merge sequence — is
// unchanged.
func (e *engine) maybeCompact() {
	livePairs := e.aliveCount * (e.aliveCount - 1) / 2
	if e.h.len() <= compactFactor*livePairs+compactMinLen {
		return
	}
	before := e.h.len()
	kept := make([]pairItem, 0, livePairs)
	for _, x := range e.h.items {
		if e.alive[x.a] && e.alive[x.b] {
			kept = append(kept, x)
		}
	}
	e.h.items = kept
	e.h.init()
	aibCompactions.Inc()
	if testHookCompact != nil {
		testHookCompact(before, e.h.len())
	}
}
