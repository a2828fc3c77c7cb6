package limbo

import (
	"context"
	"fmt"
	"math"
	"slices"

	"structmine/internal/it"
)

// countKernel is the arithmetic of a Tree whose objects all put one and
// the same mass s₀ on each of their m coordinates — the tuple objects of
// §4, with p(t) = 1/n and p(v|t) = 1/m. A cluster of N such objects is
// then an integer count vector, aᵥ of them holding coordinate v, with
// sums s = s₀·a and mass W = s₀·m·N. Writing F(k) = k·log₂k, the linear
// terms of the weighted-sum δI cancel and
//
//	δI = s₀·( m·[F(N₁+N₂) − F(N₁) − F(N₂)] − Σᵥ [F(aᵥ+bᵥ) − F(aᵥ) − F(bᵥ)] ),
//
// so a count tree ranks, thresholds and merges on δI/s₀ read from one
// table of F: no logarithm on the insert path, and a merged cluster is
// exact integers rather than renormalized floats. The DCFs of a count
// tree keep int32 count tiers (cnt/tcnt, parallel to idx/tidx) in place
// of the float sums and their cached logarithms.
type countKernel struct {
	m  int       // coordinates per object
	w  float64   // mass per object, p(t)
	p  float64   // conditional mass per coordinate, p(v|t)
	s0 float64   // w·p: the mass an object puts on each coordinate
	f  []float64 // f[k] = F(k) = it.XLog2(k), deltaObj's and delta's memo
}

// countKernelFor returns the count kernel of objs, or nil when they do
// not all put one and the same mass on each of their coordinates: the
// same W, the same number m ≥ 1 of coordinates and the same conditional
// bits on every coordinate. Tuple objects have that property; value
// objects, whose masses are 1/(d·|supp v|), do not.
func countKernelFor(objs []Obj) *countKernel {
	if len(objs) == 0 || len(objs[0].Cond) == 0 || !(objs[0].W > 0) {
		return nil
	}
	k := &countKernel{m: len(objs[0].Cond), w: objs[0].W, p: objs[0].Cond[0].P}
	if !(k.p > 0) {
		return nil
	}
	for _, o := range objs {
		if !k.fits(o) {
			return nil
		}
	}
	k.s0 = k.w * k.p
	k.grow(len(objs))
	return k
}

// fits reports whether an object has the kernel's masses.
func (k *countKernel) fits(o Obj) bool {
	if math.Float64bits(o.W) != math.Float64bits(k.w) || len(o.Cond) != k.m {
		return false
	}
	for _, e := range o.Cond {
		if math.Float64bits(e.P) != math.Float64bits(k.p) {
			return false
		}
	}
	return true
}

// grow extends the F table to cover counts up to n.
func (k *countKernel) grow(n int) {
	for x := len(k.f); x <= n; x++ {
		k.f = append(k.f, it.XLog2(float64(x)))
	}
}

// load puts an object's coordinates into the per-insert context.
func (k *countKernel) load(c *objCtx, o Obj) {
	if !k.fits(o) {
		panic("limbo: object does not fit the tree's count kernel")
	}
	c.idx = c.idx[:0]
	for _, e := range o.Cond {
		c.idx = append(c.idx, e.Idx)
	}
}

// deltaObj is δI/s₀ between the loaded object (N = 1, a count of one on
// each coordinate) and d, summed as Σ over the object's coordinates of
// D(N) − D(aᵥ), D(k) = F(k+1) − F(k): a term is exactly zero where
// aᵥ = N, so joining a cluster of copies costs exactly 0. It records
// where each coordinate was found into pos (main index, ^tail index or
// posMiss) for absorbObjAt: one load through a ranked DCF's index,
// cursor-bounded binary searches of the tiers otherwise.
func (k *countKernel) deltaObj(d *DCF, c *objCtx, pos []int32) float64 {
	f := k.f
	dn := f[d.N+1] - f[d.N]
	res := 0.0
	miss := 0
	if d.rank != nil {
		for j, ix := range c.idx {
			p := d.probe(ix)
			pos[j] = p
			if p == posMiss {
				miss++
				continue
			}
			a := d.countAt(p)
			res += dn - (f[a+1] - f[a])
		}
	} else {
		didx, tidx := d.idx, d.tidx
		mi, ti := 0, 0
		for j, ix := range c.idx {
			var a int32
			mi = searchFrom(didx, mi, ix)
			if mi < len(didx) && didx[mi] == ix {
				a, pos[j] = d.cnt[mi], int32(mi)
			} else if ti = searchFrom(tidx, ti, ix); ti < len(tidx) && tidx[ti] == ix {
				a, pos[j] = d.tcnt[ti], ^int32(ti)
			} else {
				pos[j] = posMiss
				miss++
				continue
			}
			res += dn - (f[a+1] - f[a])
		}
	}
	res += float64(miss) * dn
	if res < 0 {
		res = 0
	}
	return res
}

// searchFrom is the position of the first element of idx[from:] that is
// ≥ ix (deltaIObjCtx's inlined binary search).
func searchFrom(idx []int32, from int, ix int32) int {
	lo, hi := from, len(idx)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if idx[m] < ix {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// probe is where a ranked count DCF holds coordinate ix: its main
// position, ^its tail position, or posMiss.
func (d *DCF) probe(ix int32) int32 {
	if int(ix) < len(d.rank) {
		return d.rank[ix]
	}
	return posMiss
}

// countAt is the count at a probed position (0 at posMiss).
func (d *DCF) countAt(p int32) int32 {
	switch {
	case p >= 0:
		return d.cnt[p]
	case p != posMiss:
		return d.tcnt[^p]
	}
	return 0
}

// find is where count DCF d holds ix — through the rank index when d
// has one, else galloping from the ascending cursors mi/ti, which it
// advances.
func (d *DCF) find(ix int32, mi, ti *int) int32 {
	if d.rank != nil {
		return d.probe(ix)
	}
	pos, ok := it.Gallop(d.idx, *mi, ix)
	*mi = pos
	if ok {
		*mi = pos + 1
		return int32(pos)
	}
	pos, ok = it.Gallop(d.tidx, *ti, ix)
	*ti = pos
	if ok {
		*ti = pos + 1
		return ^int32(pos)
	}
	return posMiss
}

// delta is δI/s₀ between two count DCFs, scanning the smaller support
// in ascending order and galloping through the larger, like DeltaIDCF.
func (k *countKernel) delta(a, b *DCF) float64 {
	if a.SupportLen() > b.SupportLen() {
		a, b = b, a
	}
	f := k.f
	res := float64(k.m) * (f[a.N+b.N] - f[a.N] - f[b.N])
	mi, ti := 0, 0
	ai, at := 0, 0
	for ai < len(a.idx) || at < len(a.tidx) {
		var ix, x int32
		if at >= len(a.tidx) || (ai < len(a.idx) && a.idx[ai] < a.tidx[at]) {
			ix, x = a.idx[ai], a.cnt[ai]
			ai++
		} else {
			ix, x = a.tidx[at], a.tcnt[at]
			at++
		}
		y := b.countAt(b.find(ix, &mi, &ti))
		if y == 0 {
			continue // disjoint coordinate: the term vanishes
		}
		res -= f[x+y] - f[x] - f[y]
	}
	if res < 0 {
		res = 0
	}
	return res
}

// newLeaf builds a singleton count DCF in the arena from the loaded
// object.
func (k *countKernel) newLeaf(ar *arena, o Obj, c *objCtx) *DCF {
	d := ar.dcf()
	d.N = 1
	d.FirstID = o.ID
	d.idx = append(ar.int32s(len(c.idx)), c.idx...)
	d.cnt = ar.int32s(len(c.idx))[:len(c.idx)]
	for i := range d.cnt {
		d.cnt[i] = 1
	}
	return d
}

// clone deep-copies a count DCF into the arena (the wrap step of node
// splits).
func (k *countKernel) clone(ar *arena, src *DCF) *DCF {
	d := ar.dcf()
	d.N = src.N
	d.FirstID = src.FirstID
	d.idx = append(ar.int32s(len(src.idx)), src.idx...)
	d.cnt = append(ar.int32s(len(src.cnt)), src.cnt...)
	d.tidx = append(ar.int32s(len(src.tidx)), src.tidx...)
	d.tcnt = append(ar.int32s(len(src.tcnt)), src.tcnt...)
	if src.rank != nil {
		d.rank = append([]int32(nil), src.rank...)
	}
	return d
}

// absorbObjAt adds the loaded object to d along the probe positions a
// just-finished deltaObj scan recorded: one increment per coordinate
// held, new coordinates staged with a count of one.
func (k *countKernel) absorbObjAt(d *DCF, c *objCtx, pos []int32, sc *mergeScratch) {
	d.N++
	stageIdx, stageCnt := sc.stageIdx[:0], sc.stageCnt[:0]
	for j, ix := range c.idx {
		switch p := pos[j]; {
		case p >= 0:
			d.cnt[p]++
		case p != posMiss:
			d.tcnt[^p]++
		default:
			stageIdx = append(stageIdx, ix)
			stageCnt = append(stageCnt, 1)
		}
	}
	commitCounts(d, stageIdx, stageCnt, sc)
}

// absorb merges the count DCF o into d; o is only read.
func (k *countKernel) absorb(d, o *DCF, sc *mergeScratch) {
	d.N += o.N
	stageIdx, stageCnt := sc.stageIdx[:0], sc.stageCnt[:0]
	mi, ti := 0, 0
	oi, ot := 0, 0
	for oi < len(o.idx) || ot < len(o.tidx) {
		var ix, x int32
		if ot >= len(o.tidx) || (oi < len(o.idx) && o.idx[oi] < o.tidx[ot]) {
			ix, x = o.idx[oi], o.cnt[oi]
			oi++
		} else {
			ix, x = o.tidx[ot], o.tcnt[ot]
			ot++
		}
		switch p := d.find(ix, &mi, &ti); {
		case p >= 0:
			d.cnt[p] += x
		case p != posMiss:
			d.tcnt[^p] += x
		default:
			stageIdx = append(stageIdx, ix)
			stageCnt = append(stageCnt, x)
		}
	}
	commitCounts(d, stageIdx, stageCnt, sc)
}

// commitCounts is commitStaged on count tiers: staged coordinates merge
// into the tail, and the tail folds into the main tier under the same
// consolidation policy. Both merges run in place from the back, so only
// the entries past the first insertion point move, and the rank index
// follows them (indexCounts).
func commitCounts(d *DCF, stageIdx, stageCnt []int32, sc *mergeScratch) {
	sc.stageIdx, sc.stageCnt = stageIdx[:0], stageCnt[:0]
	if len(stageIdx) == 0 {
		return
	}
	var from int
	d.tidx, d.tcnt, from = mergeCounts(d.tidx, d.tcnt, stageIdx, stageCnt, sc.ar)
	if t := len(d.tidx); t*t >= 16*max(1024, len(d.idx)) {
		d.idx, d.cnt, from = mergeCounts(d.idx, d.cnt, d.tidx, d.tcnt, sc.ar)
		d.tidx, d.tcnt = d.tidx[:0], d.tcnt[:0]
		d.indexCounts(from, true)
		return
	}
	d.indexCounts(from, false)
}

// mergeCounts merges the ascending (sIdx, sCnt), disjoint from idx, into
// the tier (idx, cnt) in place from the back, growing its storage
// geometrically from the arena when too small. It returns the tier and
// the first position that moved.
func mergeCounts(idx, cnt, sIdx, sCnt []int32, ar *arena) ([]int32, []int32, int) {
	n, k := len(idx), len(sIdx)
	if cap(idx) < n+k || cap(cnt) < n+k {
		c := n + k + (n+k)/2 + 8
		idx = append(ar.int32s(c), idx...)
		cnt = append(ar.int32s(c), cnt...)
	}
	idx, cnt = idx[:n+k], cnt[:n+k]
	i, w := n-1, n+k-1
	for j := k - 1; j >= 0; w-- {
		if i >= 0 && idx[i] > sIdx[j] {
			idx[w], cnt[w] = idx[i], cnt[i]
			i--
		} else {
			idx[w], cnt[w] = sIdx[j], sCnt[j]
			j--
		}
	}
	return idx, cnt, w + 1
}

// countRankMin is the support from which a count DCF keeps a rank
// index. Its probes run on every insert routed through it, and a count
// tree's summaries are few, so the index pays off far below the float
// kernel's rankMinSupport.
const countRankMin = 64

// indexCounts keeps a count DCF's rank index over both tiers: rank[ix]
// is ix's main position, ^its tail position, or posMiss. A count DCF's
// support only grows, so an update overwrites and never clears: the
// positions from `from` on of the tier a merge just moved (main after a
// consolidation, else the tail), or every position at the first build.
// Ids too sparse for a dense table (max id above 32× the support,
// buildRank's rule) get none.
func (d *DCF) indexCounts(from int, main bool) {
	n := d.SupportLen()
	if d.rank == nil && n < countRankMin {
		return
	}
	maxID := int32(-1)
	if len(d.idx) > 0 {
		maxID = d.idx[len(d.idx)-1]
	}
	if len(d.tidx) > 0 {
		maxID = max(maxID, d.tidx[len(d.tidx)-1])
	}
	if int(maxID) > 32*n {
		d.rank = nil
		return
	}
	if d.rank == nil {
		d.rank = make([]int32, 0, int(maxID)+1)
		from, main = 0, true
		for i, ix := range d.tidx {
			d.rankAt(ix, ^int32(i))
		}
	}
	if main {
		for i := from; i < len(d.idx); i++ {
			d.rankAt(d.idx[i], int32(i))
		}
		return
	}
	for i := from; i < len(d.tidx); i++ {
		d.rankAt(d.tidx[i], ^int32(i))
	}
}

// rankAt sets rank[ix] = p, extending the index with posMiss as needed.
func (d *DCF) rankAt(ix, p int32) {
	if old := len(d.rank); int(ix) >= old {
		if cap(d.rank) > int(ix) {
			d.rank = d.rank[:ix+1]
		} else {
			grown := make([]int32, ix+1, max(int(ix)+1, 2*cap(d.rank)))
			copy(grown, d.rank)
			d.rank = grown
		}
		for i := old; i < len(d.rank); i++ {
			d.rank[i] = posMiss
		}
	}
	d.rank[ix] = p
}

// floatDCF is the float DCF of a count DCF on the heap: mass N·p(t),
// sums aᵥ·s₀ in ascending coordinate order.
func (k *countKernel) floatDCF(d *DCF) *DCF {
	n := d.SupportLen()
	out := &DCF{W: float64(d.N) * k.w, N: d.N, FirstID: d.FirstID,
		idx: make([]int32, 0, n), val: make([]float64, 0, n), vlog: make([]float64, 0, n)}
	out.wlog = it.XLog2(out.W)
	d.eachCount(func(ix, a int32) {
		s := float64(a) * k.s0
		out.idx = append(out.idx, ix)
		out.val = append(out.val, s)
		out.vlog = append(out.vlog, it.XLog2(s))
	})
	return out
}

// eachCount calls fn on every (coordinate, count) of a count DCF in
// ascending coordinate order.
func (d *DCF) eachCount(fn func(ix, a int32)) {
	ai, at := 0, 0
	for ai < len(d.idx) || at < len(d.tidx) {
		if at >= len(d.tidx) || (ai < len(d.idx) && d.idx[ai] < d.tidx[at]) {
			fn(d.idx[ai], d.cnt[ai])
			ai++
		} else {
			fn(d.tidx[at], d.tcnt[at])
			at++
		}
	}
}

// coordCount is one coordinate's count in a cluster.
type coordCount struct{ ix, a int32 }

// tally sums the counts of equal coordinates, returned in ascending
// coordinate order: through a dense table when the ids are dense (max
// id ≤ 32× the entries, buildRank's rule), else by sorting.
func tally(cs []coordCount) []coordCount {
	lo, hi := int32(math.MaxInt32), int32(-1)
	for _, e := range cs {
		lo, hi = min(lo, e.ix), max(hi, e.ix)
	}
	if lo >= 0 && int(hi) <= 32*len(cs) {
		acc := make([]int32, hi+1)
		for _, e := range cs {
			acc[e.ix] += e.a
		}
		out := cs[:0]
		for ix, a := range acc {
			if a != 0 {
				out = append(out, coordCount{int32(ix), a})
			}
		}
		return out
	}
	slices.SortFunc(cs, func(x, y coordCount) int { return int(x.ix) - int(y.ix) })
	out := cs[:0]
	for _, e := range cs {
		if n := len(out); n > 0 && out[n-1].ix == e.ix {
			out[n-1].a += e.a
		} else {
			out = append(out, e)
		}
	}
	return out
}

// info is I(C;V) in bits of a clustering given as count vectors — each
// cluster's size N_c and its (coordinate, count) pairs in ascending
// coordinate order — on the count-entropy kernel:
//
//	I·n·m = NH(n·m; a_v) − Σ_c NH(m·N_c; a_cv),
//
// with the marginal a_v summed in integers. Both partition quantities
// (the leaves' and Phase 3's) come from here.
func (k *countKernel) info(sizes []int, clusters [][]coordCount) float64 {
	cond, n := 0.0, 0
	var all []coordCount
	var buf []int
	for c, counts := range clusters {
		buf = countsOf(buf, counts)
		cond += it.NH(k.m*sizes[c], buf)
		n += sizes[c]
		all = append(all, counts...)
	}
	if n == 0 {
		return 0
	}
	nm := n * k.m
	return max(0, (it.NH(nm, countsOf(buf, tally(all)))-cond)/float64(nm)) // rounding below an exact 0
}

// countsOf puts the counts of cs into buf[:0].
func countsOf(buf []int, cs []coordCount) []int {
	buf = buf[:0]
	for _, e := range cs {
		buf = append(buf, int(e.a))
	}
	return buf
}

// StreamTreeCtx builds a Phase 1 tree over a batch of objects, inserted
// in order. When every object puts one and the same mass on each of its
// coordinates (tuple objects do), the tree runs on integer counts — see
// countKernel; otherwise on the float kernel NewTreeCtx builds. The two
// rank candidates alike except where δI ties within rounding, and a
// threshold keeps its float meaning on either.
func StreamTreeCtx(ctx context.Context, cfg Config, objs []Obj) *Tree {
	t := newStreamTree(ctx, cfg, objs)
	for _, o := range objs {
		t.Insert(o)
	}
	return t
}

// newStreamTree is the empty tree StreamTreeCtx streams objs into.
func newStreamTree(ctx context.Context, cfg Config, objs []Obj) *Tree {
	t := NewTreeCtx(ctx, cfg)
	if k := countKernelFor(objs); k != nil {
		t.ck = k
		t.cfg.Threshold /= k.s0
		t.slack /= k.s0
	}
	return t
}

// Info returns I(C;V) of the tree's leaf clustering, from the counts on
// a count tree and from the normalized float leaves otherwise.
func (t *Tree) Info() float64 {
	leaves := t.leaves()
	if t.ck == nil {
		return floatInfo(leaves)
	}
	sizes := make([]int, len(leaves))
	clusters := make([][]coordCount, len(leaves))
	for i, d := range leaves {
		sizes[i] = d.N
		clusters[i] = make([]coordCount, 0, d.SupportLen())
		d.eachCount(func(ix, a int32) { clusters[i] = append(clusters[i], coordCount{ix, a}) })
	}
	return t.ck.info(sizes, clusters)
}

// InfoOf returns I(C;V) of the clustering an assignment of objs over k
// clusters induces (MutualInfoOfAssignment), counted on a count tree's
// kernel; objs must be the objects the tree was built from.
func (t *Tree) InfoOf(objs []Obj, assign []Assignment, k int) float64 {
	if t.ck == nil {
		return MutualInfoOfAssignment(objs, assign, k)
	}
	clusters := make([][]coordCount, k)
	sizes := make([]int, k)
	for oi, a := range assign {
		if a.Cluster < 0 || a.Cluster >= k {
			continue
		}
		sizes[a.Cluster]++
		for _, e := range objs[oi].Cond {
			clusters[a.Cluster] = append(clusters[a.Cluster], coordCount{e.Idx, 1})
		}
	}
	for c := range clusters {
		clusters[c] = tally(clusters[c])
	}
	return t.ck.info(sizes, clusters)
}

// floatInfo is I(C;V) of float DCFs with their masses normalized.
func floatInfo(leaves []*DCF) float64 {
	total := 0.0
	for _, d := range leaves {
		total += d.W
	}
	if total <= 0 {
		return 0
	}
	px := make([]float64, len(leaves))
	cond := make([]it.Vec, len(leaves))
	for i, d := range leaves {
		px[i], cond[i] = d.W/total, d.Cond()
	}
	return (&it.JointDist{PX: px, CondT: cond}).MutualInfo()
}

// validCounts checks a count DCF: no float tiers, positive counts of at
// most N on each coordinate, and m·N counts in all.
func validCounts(d *DCF, m int) error {
	if len(d.val)+len(d.vlog)+len(d.tval)+len(d.tvlog) != 0 {
		return fmt.Errorf("limbo: count DCF carries float tiers")
	}
	if len(d.idx) != len(d.cnt) || len(d.tidx) != len(d.tcnt) {
		return fmt.Errorf("limbo: count DCF tier length mismatch: %d/%d main, %d/%d tail",
			len(d.idx), len(d.cnt), len(d.tidx), len(d.tcnt))
	}
	total := 0
	for _, tier := range [][]int32{d.cnt, d.tcnt} {
		for _, a := range tier {
			if a <= 0 || int(a) > d.N {
				return fmt.Errorf("limbo: count %d outside 1..N=%d", a, d.N)
			}
			total += int(a)
		}
	}
	if total != m*d.N {
		return fmt.Errorf("limbo: counts sum to %d, want m·N = %d·%d", total, m, d.N)
	}
	if d.rank != nil {
		hits := 0
		for ix, p := range d.rank {
			if p == posMiss {
				continue
			}
			hits++
			if (p >= 0 && (int(p) >= len(d.idx) || d.idx[p] != int32(ix))) ||
				(p < 0 && (int(^p) >= len(d.tidx) || d.tidx[^p] != int32(ix))) {
				return fmt.Errorf("limbo: count DCF rank index stale at id %d", ix)
			}
		}
		if hits != d.SupportLen() {
			return fmt.Errorf("limbo: count DCF rank index covers %d of %d coordinates", hits, d.SupportLen())
		}
	}
	return nil
}
