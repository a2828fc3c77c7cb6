// Package limbo implements LIMBO (scaLable InforMation BOttleneck), the
// paper's three-phase clustering algorithm:
//
//	Phase 1  stream objects into a B-ary DCF-tree whose leaf entries
//	         summarize groups of objects within an information-loss
//	         threshold τ = φ·I(V;T)/|V|;
//	Phase 2  run AIB over the leaf-level DCFs;
//	Phase 3  scan the data set again and assign every object to the
//	         closest of the k cluster representatives, scored through an
//	         inverted index of their supports (assign.go).
//
// A Distributional Cluster Feature (DCF) is the pair (p(c), p(T|c)).
// Internally we store the *unnormalized sum* s = p(c)·p(T|c), because
// the information loss of equation (3) then reduces to
//
//	δI(c1,c2) = W·log W − w1·log w1 − w2·log w2
//	            − Σ_{i∈supp(s1)} [ (s1+s2) log(s1+s2) − s1 log s1 − s2 log s2 ]
//
// with W = w1+w2 — a sum over the support of the *smaller* operand only,
// which is what makes inserting 50k tuples into the tree cheap. The
// identity is verified against the direct equation-(3) computation in
// tests.
//
// The sum lives in a two-tier sorted-sparse layout instead of a hash
// map: a large sorted main array plus a small sorted tail, disjoint,
// logically their union. δI is a branch-light ascending scan with
// galloping probes; absorption adds existing coordinates in place and
// two-pointer-merges only the (few) new ones into the tail, which is
// folded into the main array when it outgrows √|main| — so absorbing an
// object into an n-coordinate summary costs O(|obj|·log n + √n)
// amortized rather than the O(n) a flat rewrite would pay, with zero
// allocations at steady state (the Tree recycles merge buffers).
// Iteration order is always ascending-coordinate and independent of the
// main/tail split, so δI results are bit-identical across runs — the
// Phase 1 determinism tests rely on that.
package limbo

import (
	"math"

	"structmine/internal/it"
)

// DCF is a distributional cluster feature in weighted-sum form: the
// pair (p(c), p(T|c)) that Phases 1–3 compute on, plus the member count
// and first member for reporting. The paper's ADCF rows (matrix O of
// Section 6.2) are not carried here: they merge by plain addition, so
// package values sums a group's row from Phase 1's membership.
type DCF struct {
	W float64 // p(c): total probability mass of the cluster
	N int     // number of objects summarized
	// FirstID is the id of the first object absorbed, for reporting.
	FirstID int32

	// Sorted-sparse sum s: main tier (idx/val) and tail tier (tidx/tval),
	// both ascending, supports disjoint; the logical support is their
	// union and Σ val + Σ tval = W. vlog/tvlog/wlog memoize x·log₂x of
	// the stored sums and of W — the log only moves when the value does
	// (absorption), while δI reads it once per candidate scan, so the
	// cache turns three logarithms per overlapping coordinate into one.
	idx   []int32
	val   []float64
	vlog  []float64
	tidx  []int32
	tval  []float64
	tvlog []float64
	wlog  float64
	// cnt/tcnt replace val/vlog/tval/tvlog in the DCFs of a count tree
	// (counts.go): per-coordinate object counts, parallel to idx/tidx.
	cnt  []int32
	tcnt []int32

	// rank, when non-nil, is a direct position index over the main tier:
	// rank[i] is the position of coordinate i in idx, or -1. The main
	// tier only moves at consolidation time, which is when rank is
	// (re)built — in between, the handful of very large summaries near
	// the root answer probes in O(1) instead of O(log n). Built only for
	// supports ≥ rankMinSupport with dense coordinate ids (see
	// buildRank). A count DCF's index covers both tiers (indexCounts).
	rank []int32
}

// Obj is an object to be inserted: id, mass and normalized conditional.
type Obj struct {
	ID   int32
	W    float64
	Cond it.Vec
	// Counts is the caller's payload, carried alongside the object and
	// never read by Phases 1–3: package values keeps each value's row of
	// matrix O here and sums a group's row from Phase 1's membership.
	Counts []int64
}

// mergeScratch holds the reusable buffers of the sparse absorb kernels:
// stage collects a source's new coordinates, merge receives tail merges
// and consolidations, whose results are then copied back into the
// destination's own (geometrically grown) tier storage. A Tree owns one
// and threads it through every absorption on the insert path, so the
// steady state allocates nothing — the merge pair grows monotonically to
// the largest tier ever merged and tier growth is carved from the Tree's
// arena. The nil scratch used by the public Absorb methods allocates per
// merge instead. A scratch must not be used from two goroutines at once.
type mergeScratch struct {
	stageIdx []int32
	stageVal []float64
	stageLog []float64
	mergeIdx []int32
	mergeVal []float64
	mergeLog []float64
	stageCnt []int32 // the count kernel's new coordinates (counts.go)
	ar       *arena  // tier-growth allocator; nil → plain make
}

// capacity returns the resident size of the scratch, for the high-water
// gauge.
func (sc *mergeScratch) capacity() int {
	return cap(sc.stageIdx) + cap(sc.mergeIdx)
}

// NewDCF creates a singleton DCF for an object.
func NewDCF(o Obj) *DCF {
	d := &DCF{W: o.W, N: 1, FirstID: o.ID, wlog: it.XLog2(o.W),
		idx:  make([]int32, len(o.Cond)),
		val:  make([]float64, len(o.Cond)),
		vlog: make([]float64, len(o.Cond))}
	for i, e := range o.Cond {
		d.idx[i] = e.Idx
		d.val[i] = o.W * e.P
		d.vlog[i] = it.XLog2(d.val[i])
	}
	return d
}

// Clone deep-copies the DCF.
func (d *DCF) Clone() *DCF {
	c := &DCF{W: d.W, N: d.N, FirstID: d.FirstID, wlog: d.wlog,
		idx:   append([]int32(nil), d.idx...),
		val:   append([]float64(nil), d.val...),
		vlog:  append([]float64(nil), d.vlog...),
		tidx:  append([]int32(nil), d.tidx...),
		tval:  append([]float64(nil), d.tval...),
		tvlog: append([]float64(nil), d.tvlog...),
	}
	return c
}

// SupportLen returns the number of non-zero coordinates.
func (d *DCF) SupportLen() int { return len(d.idx) + len(d.tidx) }

// At returns the mass at coordinate i (zero if absent).
func (d *DCF) At(i int32) float64 {
	if pos, ok := it.Gallop(d.idx, 0, i); ok {
		return d.val[pos]
	}
	if pos, ok := it.Gallop(d.tidx, 0, i); ok {
		return d.tval[pos]
	}
	return 0
}

// AbsorbObj merges an object into the DCF (equations 1 and 2 in
// weighted-sum form: masses and sums simply add).
func (d *DCF) AbsorbObj(o Obj) { d.absorbObj(o, nil) }

func (d *DCF) absorbObj(o Obj, sc *mergeScratch) {
	d.W += o.W
	d.wlog = it.XLog2(d.W)
	d.N++
	stageIdx, stageVal, stageLog := stageBuffers(sc, len(o.Cond))
	mi, ti := 0, 0 // ascending probe cursors into main and tail
	for _, e := range o.Cond {
		s := o.W * e.P
		if pos, ok := it.Gallop(d.idx, mi, e.Idx); ok {
			d.val[pos] += s
			d.vlog[pos] = it.XLog2(d.val[pos])
			mi = pos + 1
			continue
		} else {
			mi = pos
		}
		if pos, ok := it.Gallop(d.tidx, ti, e.Idx); ok {
			d.tval[pos] += s
			d.tvlog[pos] = it.XLog2(d.tval[pos])
			ti = pos + 1
			continue
		} else {
			ti = pos
		}
		stageIdx = append(stageIdx, e.Idx)
		stageVal = append(stageVal, s)
		stageLog = append(stageLog, it.XLog2(s))
	}
	d.commitStaged(stageIdx, stageVal, stageLog, sc)
}

// absorbObjAt replays an absorption along the probe positions recorded
// by a just-finished closest-entry scan (deltaIObjCtx), so the insert
// path's absorptions pay zero gallops. The DCF must not have been
// mutated since the positions were recorded.
func (d *DCF) absorbObjAt(o Obj, c *objCtx, pos []int32, sc *mergeScratch) {
	d.W += o.W
	d.wlog = it.XLog2(d.W)
	d.N++
	stageIdx, stageVal, stageLog := stageBuffers(sc, len(c.idx))
	for k, ix := range c.idx {
		s := c.s[k]
		switch p := pos[k]; {
		case p >= 0: // main-tier hit
			d.val[p] += s
			d.vlog[p] = it.XLog2(d.val[p])
		case p != posMiss: // tail-tier hit, encoded as ^index
			p = ^p
			d.tval[p] += s
			d.tvlog[p] = it.XLog2(d.tval[p])
		default:
			stageIdx = append(stageIdx, ix)
			stageVal = append(stageVal, s)
			stageLog = append(stageLog, c.slog[k])
		}
	}
	d.commitStaged(stageIdx, stageVal, stageLog, sc)
}

// AbsorbDCF merges another DCF into this one. The operand is only read.
func (d *DCF) AbsorbDCF(o *DCF) { d.absorbDCF(o, nil) }

func (d *DCF) absorbDCF(o *DCF, sc *mergeScratch) {
	d.W += o.W
	d.wlog = it.XLog2(d.W)
	d.N += o.N
	stageIdx, stageVal, stageLog := stageBuffers(sc, o.SupportLen())
	mi, ti := 0, 0
	oi, ot := 0, 0 // two-pointer walk of o's union
	for oi < len(o.idx) || ot < len(o.tidx) {
		var ix int32
		var s, slog float64
		if ot >= len(o.tidx) || (oi < len(o.idx) && o.idx[oi] < o.tidx[ot]) {
			ix, s, slog = o.idx[oi], o.val[oi], o.vlog[oi]
			oi++
		} else {
			ix, s, slog = o.tidx[ot], o.tval[ot], o.tvlog[ot]
			ot++
		}
		if pos, ok := it.Gallop(d.idx, mi, ix); ok {
			d.val[pos] += s
			d.vlog[pos] = it.XLog2(d.val[pos])
			mi = pos + 1
			continue
		} else {
			mi = pos
		}
		if pos, ok := it.Gallop(d.tidx, ti, ix); ok {
			d.tval[pos] += s
			d.tvlog[pos] = it.XLog2(d.tval[pos])
			ti = pos + 1
			continue
		} else {
			ti = pos
		}
		stageIdx = append(stageIdx, ix)
		stageVal = append(stageVal, s)
		stageLog = append(stageLog, slog)
	}
	d.commitStaged(stageIdx, stageVal, stageLog, sc)
}

// stageBuffers hands out the staging area for a source's new
// coordinates: recycled from the scratch when one is threaded through,
// freshly allocated otherwise.
func stageBuffers(sc *mergeScratch, capHint int) ([]int32, []float64, []float64) {
	if sc != nil {
		return sc.stageIdx[:0], sc.stageVal[:0], sc.stageLog[:0]
	}
	return make([]int32, 0, capHint), make([]float64, 0, capHint), make([]float64, 0, capHint)
}

// commitStaged merges staged new coordinates (ascending, disjoint from
// both tiers) into the tail, consolidates the tail into the main array
// when it has outgrown √|main|, and returns grown staging buffers to the
// scratch.
func (d *DCF) commitStaged(stageIdx []int32, stageVal, stageLog []float64, sc *mergeScratch) {
	if sc != nil {
		sc.stageIdx, sc.stageVal, sc.stageLog = stageIdx[:0], stageVal[:0], stageLog[:0]
	}
	if len(stageIdx) > 0 {
		need := len(d.tidx) + len(stageIdx)
		outIdx, outVal, outLog := mergeBuffers(sc, need)
		i, j := 0, 0
		for i < len(d.tidx) && j < len(stageIdx) {
			if d.tidx[i] < stageIdx[j] {
				outIdx = append(outIdx, d.tidx[i])
				outVal = append(outVal, d.tval[i])
				outLog = append(outLog, d.tvlog[i])
				i++
			} else { // staged coordinates are never present in the tail
				outIdx = append(outIdx, stageIdx[j])
				outVal = append(outVal, stageVal[j])
				outLog = append(outLog, stageLog[j])
				j++
			}
		}
		outIdx = append(outIdx, d.tidx[i:]...)
		outVal = append(outVal, d.tval[i:]...)
		outLog = append(outLog, d.tvlog[i:]...)
		outIdx = append(outIdx, stageIdx[j:]...)
		outVal = append(outVal, stageVal[j:]...)
		outLog = append(outLog, stageLog[j:]...)
		d.tidx, d.tval, d.tvlog = storeTier(d.tidx, d.tval, d.tvlog, outIdx, outVal, outLog, sc)
	}
	// Consolidation policy: fold the tail into the main array when
	// tail² ≥ 16·max(1024, |main|), i.e. the tail may reach 4√|main|
	// (with a 128-entry floor so small summaries never thrash).
	// Amortized cost per new coordinate stays O(√n); the generous factor
	// trades a couple of extra binary-probe steps in tail searches —
	// which only run for coordinates absent from the main tier, the rare
	// case once a summary has seen the common values — for a quarter of
	// the O(n) merges.
	if t := len(d.tidx); t > 0 && t*t >= 16*max(1024, len(d.idx)) {
		need := len(d.idx) + len(d.tidx)
		outIdx, outVal, outLog := mergeBuffers(sc, need)
		i, j := 0, 0
		for i < len(d.idx) && j < len(d.tidx) {
			if d.idx[i] < d.tidx[j] { // tiers are disjoint
				outIdx = append(outIdx, d.idx[i])
				outVal = append(outVal, d.val[i])
				outLog = append(outLog, d.vlog[i])
				i++
			} else {
				outIdx = append(outIdx, d.tidx[j])
				outVal = append(outVal, d.tval[j])
				outLog = append(outLog, d.tvlog[j])
				j++
			}
		}
		outIdx = append(outIdx, d.idx[i:]...)
		outVal = append(outVal, d.val[i:]...)
		outLog = append(outLog, d.vlog[i:]...)
		outIdx = append(outIdx, d.tidx[j:]...)
		outVal = append(outVal, d.tval[j:]...)
		outLog = append(outLog, d.tvlog[j:]...)
		d.idx, d.val, d.vlog = storeTier(d.idx, d.val, d.vlog, outIdx, outVal, outLog, sc)
		d.tidx, d.tval, d.tvlog = d.tidx[:0], d.tval[:0], d.tvlog[:0]
		d.buildRank()
	}
}

// rankMinSupport is the main-tier size above which consolidation builds
// the direct rank index. Below it a binary probe is already a few cache
// lines; above it the O(max-id) rebuild amortizes against O(1) probes
// from every subsequent insert routed through the summary.
const rankMinSupport = 512

// buildRank (re)builds the direct position index after a consolidation,
// or drops it when the support is too small or its coordinate ids too
// sparse for a dense table to be worth the memory (ids come from the
// values layer, which assigns them sequentially, so density is the
// normal case). Coordinates never leave the main tier, so a rebuild
// never needs to clear old positions — the O(n) fill overwrites every
// live id and absent ids keep whatever -1 they were initialized with;
// only the newly covered id range needs initialization.
func (d *DCF) buildRank() {
	n := len(d.idx)
	if n < rankMinSupport {
		d.rank = nil
		return
	}
	maxID := int(d.idx[n-1])
	if maxID > 32*n {
		d.rank = nil
		return
	}
	old := len(d.rank)
	if cap(d.rank) <= maxID {
		grown := make([]int32, maxID+1, max(maxID+1, 2*cap(d.rank)))
		copy(grown, d.rank)
		d.rank = grown
	} else {
		d.rank = d.rank[:maxID+1]
	}
	for i := old; i <= maxID; i++ {
		d.rank[i] = -1
	}
	for i, ix := range d.idx {
		d.rank[ix] = int32(i)
	}
}

// mergeBuffers hands out a merge destination with enough capacity that
// the appends never reallocate: the scratch's recycled merge pair (grown
// with slack, so it converges on the largest tier ever merged and then
// stops allocating) or a fresh allocation.
func mergeBuffers(sc *mergeScratch, need int) ([]int32, []float64, []float64) {
	if sc == nil {
		return make([]int32, 0, need), make([]float64, 0, need), make([]float64, 0, need)
	}
	if cap(sc.mergeIdx) < need {
		c := need + need/2 + 8
		sc.mergeIdx = make([]int32, 0, c)
		sc.mergeVal = make([]float64, 0, c)
		sc.mergeLog = make([]float64, 0, c)
	}
	return sc.mergeIdx[:0], sc.mergeVal[:0], sc.mergeLog[:0]
}

// storeTier copies a merge result into the tier's own storage, growing
// it geometrically when too small (from the Tree's arena when the
// scratch carries one). The merge buffers always stay with the scratch —
// copy-back instead of pointer-swap is what lets one scratch serve every
// DCF in a tree without the buffer ping-pong of returning each
// destination's (smaller) previous slice. With no scratch the merge pair
// is freshly allocated and adopted directly.
func storeTier(oldIdx []int32, oldVal, oldLog []float64, outIdx []int32, outVal, outLog []float64, sc *mergeScratch) ([]int32, []float64, []float64) {
	if sc == nil {
		return outIdx, outVal, outLog
	}
	n := len(outIdx)
	if cap(oldIdx) < n {
		c := n + n/2 + 8
		if sc.ar != nil {
			oldIdx = sc.ar.int32s(c)
			oldVal = sc.ar.float64s(c)
			oldLog = sc.ar.float64s(c)
		} else {
			oldIdx = make([]int32, 0, c)
			oldVal = make([]float64, 0, c)
			oldLog = make([]float64, 0, c)
		}
	}
	oldIdx = oldIdx[:n]
	oldVal = oldVal[:n]
	oldLog = oldLog[:n]
	copy(oldIdx, outIdx)
	copy(oldVal, outVal)
	copy(oldLog, outLog)
	return oldIdx, oldVal, oldLog
}

// DeltaIObj returns δI between the object (as a singleton cluster) and
// the DCF: the information loss Phase 3 reports. It is computed in ratio
// form, w₁·KL(p‖m) + w₂·KL(q‖m) with m the merged conditional: each
// coordinate the two supports share adds
//
//	s₁·log(1+x₁) + s₂·log(1+x₂),  x₁ = (s₁w₂ − s₂w₁)/(w₁(s₁+s₂)),  x₂ = −x₁·w₁/w₂,
//
// and the mass outside them adds (w₁−S₁)·log(W/w₁) + (w₂−S₂)·log(W/w₂),
// S₁ and S₂ being the shared sums. This is deltaIObjRank's value in
// exact arithmetic, but no term is of the order W·log₂W: where the two
// conditionals agree, x₁ is the rounding of the group's sums and δI
// reads ≈ 0 at any mass, not a few ulps of W·log₂W. The scan costs
// O(|supp(object)|·log) regardless of the cluster's support size.
func (d *DCF) DeltaIObj(o Obj) float64 {
	w1, w2 := o.W, d.W
	if w1 <= 0 || w2 <= 0 {
		return 0
	}
	var res, shared1, shared2 float64
	mi, ti := 0, 0
	for _, e := range o.Cond {
		var s2 float64
		if pos, ok := it.Gallop(d.idx, mi, e.Idx); ok {
			s2 = d.val[pos]
			mi = pos + 1
		} else {
			mi = pos
			if pos, ok := it.Gallop(d.tidx, ti, e.Idx); ok {
				s2 = d.tval[pos]
				ti = pos + 1
			} else {
				ti = pos
				continue // outside the DCF's support
			}
		}
		s1 := w1 * e.P
		if s1 == 0 {
			continue // outside the object's support
		}
		shared1 += s1
		shared2 += s2
		x := math.FMA(s1, w2, -s2*w1) / (s1 + s2)
		res += s1*math.Log1p(x/w1) + s2*math.Log1p(-x/w2)
	}
	res += (w1-shared1)*math.Log1p(w2/w1) + (w2-shared2)*math.Log1p(w1/w2)
	res /= math.Ln2
	if res < 0 { // numerical noise
		res = 0
	}
	return res
}

// deltaIObjRank is δI between the object and the DCF in the difference
// form the Phase 1 descent (deltaIObjCtx) and the Phase 3 scan
// (AssignCtx) rank candidates by: XLog2 of the merged mass minus the
// parts', less the same per shared coordinate. Each term is ≈ W·log₂W,
// so the result carries a few ulps of that; DeltaIObj is the loss to
// report. Coordinates outside either support contribute zero; the
// stored-side logarithms come from the vlog cache.
func (d *DCF) deltaIObjRank(o Obj) float64 {
	w1, w2 := o.W, d.W
	res := it.XLog2(w1+w2) - it.XLog2(w1) - d.wlog
	mi, ti := 0, 0
	for _, e := range o.Cond {
		var s2, s2log float64
		if pos, ok := it.Gallop(d.idx, mi, e.Idx); ok {
			s2, s2log = d.val[pos], d.vlog[pos]
			mi = pos + 1
		} else {
			mi = pos
			if pos, ok := it.Gallop(d.tidx, ti, e.Idx); ok {
				s2, s2log = d.tval[pos], d.tvlog[pos]
				ti = pos + 1
			} else {
				ti = pos
				continue // s2 = 0: the term vanishes identically
			}
		}
		s1 := w1 * e.P
		res -= it.XLog2(s1+s2) - it.XLog2(s1) - s2log
	}
	if res < 0 { // numerical noise
		res = 0
	}
	return res
}

// posMiss marks a coordinate absent from both tiers in a recorded probe.
const posMiss = int32(-1) << 30

// objCtx is the per-insert precomputation the Tree reuses across every
// δI candidate of one descent: the object's coordinates, its scaled
// sums s1 = w·p, their logarithms, and it.XLog2(w) — all constant while the
// object routes down the tree, so each candidate scan pays only the
// mixed it.XLog2(s1+s2) term.
type objCtx struct {
	w    float64
	wlog float64
	idx  []int32
	s    []float64
	slog []float64
}

// set loads an object into the context, reusing its slices.
func (c *objCtx) set(o Obj) {
	c.w = o.W
	c.wlog = it.XLog2(o.W)
	c.idx = c.idx[:0]
	c.s = c.s[:0]
	c.slog = c.slog[:0]
	for _, e := range o.Cond {
		s := o.W * e.P
		c.idx = append(c.idx, e.Idx)
		c.s = append(c.s, s)
		c.slog = append(c.slog, it.XLog2(s))
	}
}

// deltaIObjCtx is deltaIObjRank over a preloaded context, bit-identical
// to it (the cached logarithms are the same pure function of the same
// inputs, and the accumulation order is unchanged). When pos is non-nil
// it additionally records where each coordinate was found — main index,
// ^tail-index, or posMiss — so the winning candidate can be absorbed
// without re-probing (absorbObjAt).
func deltaIObjCtx(d *DCF, c *objCtx, pos []int32) float64 {
	res := it.XLog2(c.w+d.W) - c.wlog - d.wlog
	didx, tidx, rank := d.idx, d.tidx, d.rank
	mn, tn := len(didx), len(tidx)
	mi, ti := 0, 0
	for k, ix := range c.idx {
		var s2, s2log float64
		hit := false
		if rank != nil {
			// O(1) probe through the consolidation-time rank index; a
			// non-negative rank is by invariant the exact main position
			// (Validate checks it), so no verifying load of didx.
			if int(ix) < len(rank) {
				if p := rank[ix]; p >= 0 {
					s2, s2log = d.val[p], d.vlog[p]
					hit = true
					if pos != nil {
						pos[k] = p
					}
				}
			}
		} else {
			// Cursor-bounded binary search of the main tier, inlined:
			// for a handful of ascending targets against a sorted tier
			// this beats galloping (fewer comparisons, and the upper
			// tree levels stay cached across probes).
			lo, hi := mi, mn
			for lo < hi {
				m := int(uint(lo+hi) >> 1)
				if didx[m] < ix {
					lo = m + 1
				} else {
					hi = m
				}
			}
			mi = lo
			if lo < mn && didx[lo] == ix {
				s2, s2log = d.val[lo], d.vlog[lo]
				hit = true
				if pos != nil {
					pos[k] = int32(lo)
				}
			}
		}
		if !hit {
			lo, hi := ti, tn
			for lo < hi {
				m := int(uint(lo+hi) >> 1)
				if tidx[m] < ix {
					lo = m + 1
				} else {
					hi = m
				}
			}
			ti = lo
			if lo < tn && tidx[lo] == ix {
				s2, s2log = d.tval[lo], d.tvlog[lo]
				ti = lo + 1
				if pos != nil {
					pos[k] = ^int32(lo)
				}
			} else {
				if pos != nil {
					pos[k] = posMiss
				}
				continue
			}
		}
		s1 := c.s[k]
		res -= it.XLog2(s1+s2) - c.slog[k] - s2log
	}
	if res < 0 {
		res = 0
	}
	return res
}

// DeltaIDCF returns δI between two DCFs, scanning the smaller support
// and galloping through the larger. The accumulation order — ascending
// coordinates of the smaller operand's union — is independent of either
// operand's main/tail split, so the result is bit-identical across runs
// and independent of how the DCFs were built.
func DeltaIDCF(a, b *DCF) float64 {
	if a.SupportLen() > b.SupportLen() {
		a, b = b, a
	}
	res := it.XLog2(a.W+b.W) - a.wlog - b.wlog
	mi, ti := 0, 0
	ai, at := 0, 0
	for ai < len(a.idx) || at < len(a.tidx) {
		var ix int32
		var s1, s1log float64
		if at >= len(a.tidx) || (ai < len(a.idx) && a.idx[ai] < a.tidx[at]) {
			ix, s1, s1log = a.idx[ai], a.val[ai], a.vlog[ai]
			ai++
		} else {
			ix, s1, s1log = a.tidx[at], a.tval[at], a.tvlog[at]
			at++
		}
		var s2, s2log float64
		if pos, ok := it.Gallop(b.idx, mi, ix); ok {
			s2, s2log = b.val[pos], b.vlog[pos]
			mi = pos + 1
		} else {
			mi = pos
			if pos, ok := it.Gallop(b.tidx, ti, ix); ok {
				s2, s2log = b.tval[pos], b.tvlog[pos]
				ti = pos + 1
			} else {
				ti = pos
				continue // disjoint coordinate: the term vanishes
			}
		}
		res -= it.XLog2(s1+s2) - s1log - s2log
	}
	if res < 0 {
		res = 0
	}
	return res
}

// Cond returns the normalized conditional p(T|c) as a sparse vector.
func (d *DCF) Cond() it.Vec {
	if d.W <= 0 || d.SupportLen() == 0 {
		return nil
	}
	es := make([]it.Entry, 0, d.SupportLen())
	ai, at := 0, 0
	for ai < len(d.idx) || at < len(d.tidx) {
		if at >= len(d.tidx) || (ai < len(d.idx) && d.idx[ai] < d.tidx[at]) {
			es = append(es, it.Entry{Idx: d.idx[ai], P: d.val[ai] / d.W})
			ai++
		} else {
			es = append(es, it.Entry{Idx: d.tidx[at], P: d.tval[at] / d.W})
			at++
		}
	}
	return it.Vec(es)
}

// Support returns the tuple-cluster coordinates with non-zero mass,
// ascending.
func (d *DCF) Support() []int32 {
	out := make([]int32, 0, d.SupportLen())
	ai, at := 0, 0
	for ai < len(d.idx) || at < len(d.tidx) {
		if at >= len(d.tidx) || (ai < len(d.idx) && d.idx[ai] < d.tidx[at]) {
			out = append(out, d.idx[ai])
			ai++
		} else {
			out = append(out, d.tidx[at])
			at++
		}
	}
	return out
}
