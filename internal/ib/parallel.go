package ib

import (
	"context"
	"sort"

	"structmine/internal/exec"
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

// engine holds the mutable state of one agglomerative run over clusters
// in weighted-sum form (kernel.go) whose coordinates are remapped to
// 0..U−1. The serial reference in serial.go mirrors its arithmetic with
// plain two-pointer walks; property tests assert the two produce
// bit-identical merge sequences.
type engine struct {
	ctx        context.Context // carries the worker budget for every fan-out
	clusters   []cluster
	alive      []bool
	aliveCount int
	table      []slot // U-slot scatter table of the newest node, read-only during a recompute
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
		e.clusters[i] = newCluster(o)
		e.alive[i] = true
	}
	e.buildInitialCandidates(remap(e.clusters))
	return e
}

// buildInitialCandidates computes δI for all q(q−1)/2 initial pairs into
// one preallocated slice laid out newer-major — row j holds the pairs
// (0, j) .. (j−1, j) from flat index j(j−1)/2 — so exec can hand each
// worker an equally sized contiguous range regardless of row lengths. A
// worker scatters each row's newer cluster into its own U-slot table
// once and every older cluster of the row probes it. The heap invariant
// is then established with a single O(q²) bottom-up init instead of
// q²/2 serial pushes (O(q² log q)).
//
// Determinism: each slot k holds the δI of a fixed (i, j) pair computed
// from inputs no worker mutates, so the resulting candidate multiset is
// identical for any worker count; pops then surface candidates in the
// strict (loss, a, b) total order regardless of heap layout.
func (e *engine) buildInitialCandidates(u int) {
	q := len(e.clusters)
	total := q * (q - 1) / 2
	items := e.mem.Slice(total)[:total]
	plan := exec.Plan(e.ctx, exec.AIBPairs, total, total)
	tables := make([][]slot, plan.Workers())
	for w := range tables {
		tables[w] = make([]slot, u)
	}
	plan.ForChunk(func(w, lo, hi int) {
		tab := tables[w]
		// Row j is the last one starting at or before lo.
		j := sort.Search(q, func(r int) bool { return r*(r-1)/2 > lo }) - 1
		for k := lo; k < hi; j++ {
			n := &e.clusters[j]
			start := j * (j - 1) / 2
			end := min(hi, start+j)
			scatter(tab, n)
			for ; k < end; k++ {
				i := k - start
				items[k] = pairItem{loss: deltaI(&e.clusters[i], n, tab), a: i, b: j}
			}
			unscatter(tab, n)
		}
	})
	e.table = tables[0]
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
	node := len(e.clusters)
	e.clusters = append(e.clusters, mergeClusters(&e.clusters[top.a], &e.clusters[top.b]))
	// Merged nodes are never read again: release their sums.
	e.clusters[top.a], e.clusters[top.b] = cluster{}, cluster{}
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
// then bulk-appends the results with O(log n) sifts. The new node is
// scattered once into the shared table, which every worker only reads;
// each older cluster walks its own support against it, exactly as the
// initial pairs do, so the floating-point results match the serial
// engine's bit for bit.
func (e *engine) pushMergeCandidates(node int) {
	ids := e.ids[:0]
	work := 0
	for id := 0; id < node; id++ {
		if e.alive[id] {
			ids = append(ids, id)
			work += len(e.clusters[id].idx) + 1
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
	nc := &e.clusters[node]
	scatter(e.table, nc)
	// Work estimate: each δI probes the table once per coordinate of the
	// older cluster.
	exec.For(e.ctx, exec.AIBRecompute, len(ids), work, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			buf[k] = pairItem{loss: deltaI(&e.clusters[ids[k]], nc, e.table), a: ids[k], b: node}
		}
	})
	unscatter(e.table, nc)
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
