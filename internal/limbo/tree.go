package limbo

import (
	"context"
	"fmt"
	"math"
	"time"

	"structmine/internal/it"
)

// Config controls Phase 1 tree construction.
type Config struct {
	// B is the branching factor (maximum entries per node). The paper
	// uses B = 4 throughout.
	B int
	// Threshold is τ, the maximum information loss a leaf entry may
	// absorb; the paper sets τ = φ·I(V;T)/|V|. Zero merges only objects
	// with identical conditionals (LIMBO degenerates to AIB) — which is
	// why Phase1Ctx at τ = 0 groups them in one hash pass instead of
	// building a tree, and numbers its leaves by first member rather than
	// left to right. A tree built here at zero stays the reference that
	// grouping is tested against.
	Threshold float64
	// MaxLeafEntries, when positive, bounds the number of leaf entries:
	// if an insertion would exceed it, the threshold is increased and the
	// tree rebuilt from its own summaries (the "pick a number of leaves
	// that is sufficiently large" mode of Section 6.1.2).
	MaxLeafEntries int

	// forceSerial routes every closest-entry search through the retained
	// serial reference (serial.go). Settable only in-package: the
	// determinism property tests build one tree per mode and require the
	// results to be bit-identical.
	forceSerial bool
}

const thresholdEps = 1e-12

// Tree is the DCF-tree of Phase 1.
//
// A Tree is NOT safe for concurrent use: Insert threads the tree-owned
// merge scratch (sc) and candidate-distance buffer (dist) through every
// absorption and closest-entry search, so two concurrent Inserts would
// race on them (and on the structural fields). Build trees from one
// goroutine; the read-only DCFs it hands out (Leaves) are safe to share
// afterwards.
type Tree struct {
	cfg         Config
	root        *node
	leafEntries int
	inserted    int
	rebuilds    int
	nodes       int // node structs in the tree (≥ 1: the root)
	height      int // levels from root to leaves (1 for a leaf root)

	// ar is the tree-owned slab allocator: DCF structs, nodes, entries
	// and sparse-tier growth are carved from it, so a streaming build
	// costs O(slabs) heap allocations rather than O(inserts). Everything
	// it hands out lives as long as the Tree (rebuilds reuse it and leak
	// the replaced structure into it until the Tree itself is dropped).
	ar arena
	// sc is the merge scratch every absorption on the insert path reuses;
	// merge results are copied back into the destination DCF's own
	// arena-grown tiers, so at steady state an insert allocates nothing.
	sc mergeScratch
	// dist is the reusable per-node candidate-distance buffer of the
	// closest-entry search.
	dist []float64
	// octx holds the per-insert precomputation (scaled sums and their
	// logarithms) shared by every δI candidate of one descent, and
	// posBuf the per-candidate probe positions the winning absorption
	// replays — one row per entry.
	octx   objCtx
	posBuf []int32
	// scratchHW is the high-water mark of the scratch capacity, exported
	// through the structmine_limbo_dcf_scratch_highwater_entries gauge.
	scratchHW int
	// ck, when non-nil, is the count kernel the tree runs on (counts.go,
	// set by StreamTreeCtx); cfg.Threshold and slack are then in its
	// units, δI/s₀. slack is the absolute tolerance of the absorb test.
	ck    *countKernel
	slack float64
	// steer, when set, sees every choice the tree makes between
	// candidates — argmin, the first strict minimum, over their δI in the
	// kernel's units — and returns the choice to take instead. Tests
	// only: the count kernel's oracle walks a count tree and a float tree
	// in lockstep through it and attributes each disagreement to a tie.
	steer    func(dist []float64, choice int) int
	pairDist []float64 // splitNode's seed candidates
}

type node struct {
	leaf    bool
	entries []*entry
}

type entry struct {
	dcf   *DCF
	child *node // nil iff owning node is a leaf
}

// NewTreeCtx creates an empty DCF-tree; B defaults to 4 when
// non-positive. When the context carries a scheduler grant, the tree's
// numeric slabs are checked out of the process arena pool and recycled
// when the grant is released (the Tree must not outlive it); under a bare
// context they come from the heap.
func NewTreeCtx(ctx context.Context, cfg Config) *Tree {
	if cfg.B <= 1 {
		cfg.B = 4
	}
	t := &Tree{cfg: cfg, nodes: 1, height: 1, slack: thresholdEps}
	t.ar.init(ctx)
	t.sc.ar = &t.ar
	t.root = t.newNode(true)
	return t
}

// newNode carves a node with room for the transient B+1 overflow, so the
// child list never reallocates.
func (t *Tree) newNode(leaf bool) *node {
	n := t.ar.node()
	n.leaf = leaf
	n.entries = t.ar.entrySlice(t.cfg.B + 1)
	return n
}

// Threshold returns the current merge threshold (it may have grown in
// MaxLeafEntries mode).
func (t *Tree) Threshold() float64 { return t.cfg.Threshold * t.unit() }

// unit is the information one δI unit of the tree's kernel stands for:
// 1 on floats, s₀ on counts.
func (t *Tree) unit() float64 {
	if t.ck != nil {
		return t.ck.s0
	}
	return 1
}

// LeafCount returns the number of leaf entries (cluster summaries).
func (t *Tree) LeafCount() int { return t.leafEntries }

// Inserted returns how many objects have been inserted.
func (t *Tree) Inserted() int { return t.inserted }

// Rebuilds returns how many adaptive-threshold rebuilds occurred.
func (t *Tree) Rebuilds() int { return t.rebuilds }

// Nodes returns the number of node structs in the tree (internal nodes
// plus leaves; 1 for an empty tree, whose root is a leaf).
func (t *Tree) Nodes() int { return t.nodes }

// Height returns the number of levels from the root down to the leaves
// (1 while the root is itself a leaf).
func (t *Tree) Height() int { return t.height }

// Insert streams one object into the tree (Phase 1). It returns the leaf
// DCF the object was absorbed into (or became); the pointer remains
// valid for the tree's lifetime unless an adaptive rebuild occurs (only
// possible in MaxLeafEntries mode). On a count tree it is an identity
// only: its tiers are counts, and Leaves hands out the float summaries.
func (t *Tree) Insert(o Obj) *DCF {
	start := time.Now()
	t.inserted++
	if t.ck != nil {
		t.ck.grow(t.inserted)
	}
	leaf := t.insertObj(o)
	if t.cfg.MaxLeafEntries > 0 {
		for t.leafEntries > t.cfg.MaxLeafEntries {
			t.rebuild()
		}
	}
	limboInserts.Inc()
	limboInsertSeconds.Observe(time.Since(start).Seconds())
	limboTreeNodes.Set(int64(t.nodes))
	limboTreeHeight.Set(int64(t.height))
	if hw := t.sc.capacity(); hw > t.scratchHW {
		t.scratchHW = hw
		limboScratchHighwater.Set(int64(hw))
	}
	return leaf
}

// insertObj streams an object down the tree without materializing a
// singleton DCF: internal summaries on the routing path absorb the
// object in place and a DCF is built (in the arena) only when the object
// opens a new leaf entry. This is where the O(inserts) allocations of
// the map-era Phase 1 went.
func (t *Tree) insertObj(o Obj) *DCF {
	if t.ck != nil {
		t.ck.load(&t.octx, o)
	} else {
		t.octx.set(o)
	}
	if need := (t.cfg.B + 1) * len(t.octx.idx); cap(t.posBuf) < need {
		t.posBuf = make([]int32, need)
	}
	split, e1, e2, leaf := t.insertIntoObj(t.root, o)
	if split {
		t.growRoot(e1, e2)
	}
	return leaf
}

// posRow returns candidate i's recorded-probe row for the current
// object.
func (t *Tree) posRow(i int) []int32 {
	nc := len(t.octx.idx)
	return t.posBuf[i*nc : (i+1)*nc]
}

// absorbRouted folds the current object into the entry the closest
// search just ranked best: replaying the recorded probe positions on the
// normal path, re-probing on the serial reference path (which records
// none) — the two produce bit-identical DCF state.
func (t *Tree) absorbRouted(e *entry, o Obj, best int) {
	switch {
	case t.ck != nil:
		t.ck.absorbObjAt(e.dcf, &t.octx, t.posRow(best), &t.sc)
	case t.cfg.forceSerial:
		e.dcf.absorbObj(o, &t.sc)
	default:
		e.dcf.absorbObjAt(o, &t.octx, t.posRow(best), &t.sc)
	}
}

// deltaObj is δI, in the kernel's units, between the loaded object and
// d, recording probe positions into pos.
func (t *Tree) deltaObj(d *DCF, pos []int32) float64 {
	if t.ck != nil {
		return t.ck.deltaObj(d, &t.octx, pos)
	}
	return deltaIObjCtx(d, &t.octx, pos)
}

// delta is δI between two summaries in the kernel's units.
func (t *Tree) delta(a, b *DCF) float64 {
	if t.ck != nil {
		return t.ck.delta(a, b)
	}
	return DeltaIDCF(a, b)
}

// absorb merges summary src into d.
func (t *Tree) absorb(d, src *DCF) {
	if t.ck != nil {
		t.ck.absorb(d, src, &t.sc)
		return
	}
	d.absorbDCF(src, &t.sc)
}

// clone copies a summary into the tree's arena.
func (t *Tree) clone(d *DCF) *DCF {
	if t.ck != nil {
		return t.ck.clone(&t.ar, d)
	}
	return t.ar.cloneDCF(d)
}

// insertDCF inserts a pre-built summary (the adaptive-rebuild path).
func (t *Tree) insertDCF(d *DCF) *DCF {
	split, e1, e2, leaf := t.insertInto(t.root, d)
	if split {
		t.growRoot(e1, e2)
	}
	return leaf
}

func (t *Tree) growRoot(e1, e2 *entry) {
	r := t.newNode(false)
	r.entries = append(r.entries, e1, e2)
	t.root = r
	t.nodes++
	t.height++
}

// closest returns the index of the entry at minimum δI from d (first
// strict minimum in entry order, −1 for an empty node) and the distance.
// A node holds at most B + 1 entries, so the search runs in line; its
// choice is bit-identical to the retained serial reference
// closestEntrySerial.
func (t *Tree) closest(entries []*entry, d *DCF) (int, float64) {
	if t.cfg.forceSerial {
		return closestEntrySerial(entries, d)
	}
	dist := t.distBuf(len(entries))
	for i, e := range entries {
		dist[i] = t.delta(e.dcf, d)
	}
	return t.argmin(dist)
}

// closestObj is the object-descent twin of closest, ranking candidates
// with the preloaded object context and recording each candidate's
// probe positions for the follow-up absorption (absorbRouted).
func (t *Tree) closestObj(entries []*entry, o Obj) (int, float64) {
	if t.cfg.forceSerial {
		return closestObjSerial(entries, o)
	}
	dist := t.distBuf(len(entries))
	for i, e := range entries {
		dist[i] = t.deltaObj(e.dcf, t.posRow(i))
	}
	return t.argmin(dist)
}

// distBuf returns the distance buffer for n candidates, sized once for
// a full node plus its transient overflow.
func (t *Tree) distBuf(n int) []float64 {
	if cap(t.dist) < n {
		t.dist = make([]float64, max(n, t.cfg.B+1))
	}
	return t.dist[:n]
}

// argmin returns the first strict minimum in entry order (−1, +Inf for
// no candidates) — the choice the serial reference makes — steered when
// the test hook is set and there is a choice to make.
func (t *Tree) argmin(dist []float64) (int, float64) {
	best, bestDist := -1, math.Inf(1)
	for i, dd := range dist {
		if dd < bestDist {
			best, bestDist = i, dd
		}
	}
	if t.steer != nil && len(dist) > 0 {
		best = t.steer(dist, best)
		bestDist = dist[best]
	}
	return best, bestDist
}

// le is d1 ≤ d2: the first of two candidates unless the second is
// strictly smaller — the absorb test and a split's sides. Steered when
// the test hook is set.
func (t *Tree) le(d1, d2 float64) bool {
	first := d1 <= d2
	if t.steer != nil {
		choice := 1
		if first {
			choice = 0
		}
		first = t.steer([]float64{d1, d2}, choice) == 0
	}
	return first
}

// insertIntoObj descends to the closest leaf entry for a raw object. It
// returns split=true with the two replacement entries when the node
// overflowed, plus the leaf DCF that received the object.
func (t *Tree) insertIntoObj(n *node, o Obj) (split bool, e1, e2 *entry, leaf *DCF) {
	if n.leaf {
		best, bestDist := t.closestObj(n.entries, o)
		if best >= 0 && t.le(bestDist, t.cfg.Threshold+t.slack) {
			t.absorbRouted(n.entries[best], o, best)
			return false, nil, nil, n.entries[best].dcf
		}
		e := t.ar.entry()
		if t.ck != nil {
			e.dcf = t.ck.newLeaf(&t.ar, o, &t.octx)
		} else {
			e.dcf = t.ar.newDCF(o, &t.octx)
		}
		n.entries = append(n.entries, e)
		t.leafEntries++
		if len(n.entries) > t.cfg.B {
			s1, s2 := t.splitNode(n)
			return true, s1, s2, e.dcf
		}
		return false, nil, nil, e.dcf
	}

	// The routed summary absorbs the object before the recursion, while
	// the just-recorded probe positions are still valid; if the child
	// ends up splitting, the pre-absorbed summary is discarded anyway
	// (the two wrapped halves already carry the object's mass).
	best, _ := t.closestObj(n.entries, o)
	t.absorbRouted(n.entries[best], o, best)
	childSplit, c1, c2, leaf := t.insertIntoObj(n.entries[best].child, o)
	if !childSplit {
		return false, nil, nil, leaf
	}
	// Replace the split child with its two halves.
	n.entries[best] = c1
	n.entries = append(n.entries, c2)
	if len(n.entries) > t.cfg.B {
		s1, s2 := t.splitNode(n)
		return true, s1, s2, leaf
	}
	return false, nil, nil, leaf
}

// insertInto is the summary-descent twin of insertIntoObj, used when
// reinserting pre-built DCFs during adaptive rebuilds.
func (t *Tree) insertInto(n *node, d *DCF) (split bool, e1, e2 *entry, leaf *DCF) {
	if n.leaf {
		best, bestDist := t.closest(n.entries, d)
		if best >= 0 && t.le(bestDist, t.cfg.Threshold+t.slack) {
			t.absorb(n.entries[best].dcf, d)
			return false, nil, nil, n.entries[best].dcf
		}
		e := t.ar.entry()
		e.dcf = d
		n.entries = append(n.entries, e)
		t.leafEntries++
		if len(n.entries) > t.cfg.B {
			s1, s2 := t.splitNode(n)
			return true, s1, s2, d
		}
		return false, nil, nil, d
	}

	best, _ := t.closest(n.entries, d)
	childSplit, c1, c2, leaf := t.insertInto(n.entries[best].child, d)
	if !childSplit {
		t.absorb(n.entries[best].dcf, d)
		return false, nil, nil, leaf
	}
	// Replace the split child with its two halves.
	n.entries[best] = c1
	n.entries = append(n.entries, c2)
	if len(n.entries) > t.cfg.B {
		s1, s2 := t.splitNode(n)
		return true, s1, s2, leaf
	}
	return false, nil, nil, leaf
}

// splitNode divides an overflowing node into two, seeding with the pair
// of entries at maximum δI and assigning the rest to the nearer seed
// (the BIRCH splitting policy adapted to information loss).
func (t *Tree) splitNode(n *node) (*entry, *entry) {
	t.nodes++ // two nodes replace one
	// The seeds are the first strict maximum over the pairs in (i, j)
	// order: argmin over the negated distances.
	t.pairDist = t.pairDist[:0]
	for i := 0; i < len(n.entries); i++ {
		for j := i + 1; j < len(n.entries); j++ {
			t.pairDist = append(t.pairDist, -t.delta(n.entries[i].dcf, n.entries[j].dcf))
		}
	}
	p, _ := t.argmin(t.pairDist)
	s1, s2 := 0, 1
	for ; p >= len(n.entries)-1-s1; s1++ {
		p -= len(n.entries) - 1 - s1
	}
	s2 = s1 + 1 + p
	left := t.newNode(n.leaf)
	left.entries = append(left.entries, n.entries[s1])
	right := t.newNode(n.leaf)
	right.entries = append(right.entries, n.entries[s2])
	for i, e := range n.entries {
		if i == s1 || i == s2 {
			continue
		}
		if t.le(t.delta(e.dcf, n.entries[s1].dcf), t.delta(e.dcf, n.entries[s2].dcf)) {
			left.entries = append(left.entries, e)
		} else {
			right.entries = append(right.entries, e)
		}
	}
	return t.wrap(left), t.wrap(right)
}

func (t *Tree) wrap(n *node) *entry {
	var d *DCF
	for _, e := range n.entries {
		if d == nil {
			d = t.clone(e.dcf)
		} else {
			t.absorb(d, e.dcf)
		}
	}
	out := t.ar.entry()
	out.dcf = d
	out.child = n
	return out
}

// rebuild raises the threshold (or seeds it from the smallest observed
// inter-leaf distance when still zero) and reinserts the current leaf
// summaries into a fresh tree. Growth is gentle (×1.3, BIRCH uses ×2):
// a coarse jump can leap over the τ band separating within-group from
// between-group distances and fold small natural clusters into large
// ones before they ever get their own leaf.
func (t *Tree) rebuild() {
	leaves := t.leaves()
	if t.cfg.Threshold <= 0 {
		minDist := math.Inf(1)
		for i := 0; i < len(leaves); i++ {
			for j := i + 1; j < len(leaves); j++ {
				if d := t.delta(leaves[i], leaves[j]); d < minDist {
					minDist = d
				}
			}
		}
		// A distance within the absorb test's slack is a zero the float
		// kernel rounded up: both kernels seed 1e-9 then.
		if math.IsInf(minDist, 1) || minDist <= t.slack {
			minDist = 1e-9 / t.unit()
		}
		t.cfg.Threshold = minDist
	} else {
		t.cfg.Threshold *= 1.3
	}
	t.root = t.newNode(true)
	t.leafEntries = 0
	t.nodes = 1
	t.height = 1
	t.rebuilds++
	limboRebuilds.Inc()
	for _, d := range leaves {
		t.insertDCF(d)
	}
}

// Leaves returns the leaf-level DCFs left to right — the Phase 1
// summaries handed to Phase 2. A float tree's leaves live in its arena;
// a count tree's come as float DCFs on the heap, mass N·p(t).
func (t *Tree) Leaves() []*DCF {
	leaves := t.leaves()
	if t.ck != nil {
		for i, d := range leaves {
			leaves[i] = t.ck.floatDCF(d)
		}
	}
	return leaves
}

// leaves returns the leaf-level summaries left to right, in the
// kernel's own representation.
func (t *Tree) leaves() []*DCF {
	var out []*DCF
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			for _, e := range n.entries {
				out = append(out, e.dcf)
			}
			return
		}
		for _, e := range n.entries {
			walk(e.child)
		}
	}
	walk(t.root)
	return out
}

// Validate checks structural invariants (for tests): fanout bounds,
// leaf-entry count, the node and height bookkeeping behind the DCF-tree
// gauges, sortedness of every DCF's sparse support, and that every
// internal entry's DCF mass equals the sum of its subtree's leaf masses.
func (t *Tree) Validate() error {
	count := 0
	nodeCount := 0
	maxDepth := 0
	var walk func(n *node, depth int) (float64, int, error)
	walk = func(n *node, depth int) (float64, int, error) {
		nodeCount++
		if depth+1 > maxDepth {
			maxDepth = depth + 1
		}
		if len(n.entries) == 0 && depth > 0 {
			return 0, 0, fmt.Errorf("limbo: empty non-root node at depth %d", depth)
		}
		if len(n.entries) > t.cfg.B {
			return 0, 0, fmt.Errorf("limbo: node with %d entries exceeds B=%d", len(n.entries), t.cfg.B)
		}
		for _, e := range n.entries {
			if err := t.validSummary(e.dcf); err != nil {
				return 0, 0, err
			}
		}
		if n.leaf {
			w := 0.0
			nObjs := 0
			for _, e := range n.entries {
				if e.child != nil {
					return 0, 0, fmt.Errorf("limbo: leaf entry with child")
				}
				w += e.dcf.W
				nObjs += e.dcf.N
				count++
			}
			return w, nObjs, nil
		}
		w := 0.0
		nObjs := 0
		for _, e := range n.entries {
			if e.child == nil {
				return 0, 0, fmt.Errorf("limbo: internal entry without child")
			}
			cw, cn, err := walk(e.child, depth+1)
			if err != nil {
				return 0, 0, err
			}
			if math.Abs(cw-e.dcf.W) > 1e-9 {
				return 0, 0, fmt.Errorf("limbo: entry mass %v != subtree mass %v", e.dcf.W, cw)
			}
			if cn != e.dcf.N {
				return 0, 0, fmt.Errorf("limbo: entry N %d != subtree N %d", e.dcf.N, cn)
			}
			w += cw
			nObjs += cn
		}
		return w, nObjs, nil
	}
	_, nObjs, err := walk(t.root, 0)
	if err != nil {
		return err
	}
	if count != t.leafEntries {
		return fmt.Errorf("limbo: leafEntries=%d but counted %d", t.leafEntries, count)
	}
	if nObjs != t.inserted {
		return fmt.Errorf("limbo: inserted=%d but leaves summarize %d", t.inserted, nObjs)
	}
	if nodeCount != t.nodes {
		return fmt.Errorf("limbo: nodes=%d but counted %d", t.nodes, nodeCount)
	}
	if maxDepth != t.height {
		return fmt.Errorf("limbo: height=%d but walked depth %d", t.height, maxDepth)
	}
	return nil
}

// validSummary checks a summary of the tree under its kernel's
// invariants.
func (t *Tree) validSummary(d *DCF) error {
	if t.ck != nil {
		if err := validCounts(d, t.ck.m); err != nil {
			return err
		}
		return validTiers(d)
	}
	return validDCF(d)
}

// validDCF checks the two-tier sorted-sparse representation invariants:
// parallel slice lengths, strict ascending order within each tier,
// disjoint tier supports, and exact consistency of the memoized
// logarithms (they must be the very value it.XLog2 would produce, since δI
// substitutes them for recomputation).
func validDCF(d *DCF) error {
	if len(d.idx) != len(d.val) || len(d.idx) != len(d.vlog) ||
		len(d.tidx) != len(d.tval) || len(d.tidx) != len(d.tvlog) {
		return fmt.Errorf("limbo: DCF tier length mismatch: %d/%d/%d main, %d/%d/%d tail",
			len(d.idx), len(d.val), len(d.vlog), len(d.tidx), len(d.tval), len(d.tvlog))
	}
	if d.wlog != it.XLog2(d.W) {
		return fmt.Errorf("limbo: DCF wlog cache stale: %v for W=%v", d.wlog, d.W)
	}
	for i, v := range d.val {
		if d.vlog[i] != it.XLog2(v) {
			return fmt.Errorf("limbo: DCF main vlog cache stale at %d", i)
		}
	}
	for i, v := range d.tval {
		if d.tvlog[i] != it.XLog2(v) {
			return fmt.Errorf("limbo: DCF tail vlog cache stale at %d", i)
		}
	}
	if d.rank != nil {
		if len(d.idx) == 0 || int(d.idx[len(d.idx)-1]) >= len(d.rank) {
			return fmt.Errorf("limbo: DCF rank index shorter than main tier's id range")
		}
		hits := 0
		for ix, p := range d.rank {
			if p < 0 {
				continue
			}
			hits++
			if int(p) >= len(d.idx) || d.idx[p] != int32(ix) {
				return fmt.Errorf("limbo: DCF rank index stale at id %d", ix)
			}
		}
		if hits != len(d.idx) {
			return fmt.Errorf("limbo: DCF rank index covers %d of %d main coordinates", hits, len(d.idx))
		}
	}
	return validTiers(d)
}

// validTiers checks what both kernels share: strict ascending order
// within each tier and disjoint tier supports.
func validTiers(d *DCF) error {
	for i := 1; i < len(d.idx); i++ {
		if d.idx[i-1] >= d.idx[i] {
			return fmt.Errorf("limbo: DCF main tier not strictly ascending at %d", i)
		}
	}
	for i := 1; i < len(d.tidx); i++ {
		if d.tidx[i-1] >= d.tidx[i] {
			return fmt.Errorf("limbo: DCF tail tier not strictly ascending at %d", i)
		}
	}
	j := 0
	for _, ix := range d.tidx {
		if pos, ok := it.Gallop(d.idx, j, ix); ok {
			return fmt.Errorf("limbo: coordinate %d present in both DCF tiers", ix)
		} else {
			j = pos
		}
	}
	return nil
}
