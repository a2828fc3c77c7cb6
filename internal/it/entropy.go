package it

import (
	"math"
	"slices"
	"sort"
)

// log2 wraps math.Log2 with the 0·log 0 = 0 convention applied by callers.
func log2(x float64) float64 { return math.Log2(x) }

const invLn2 = 1 / math.Ln2

// XLog2 computes x·log₂x (0 for x ≤ 0) via the natural log and a
// constant factor — math.Log2's Frexp normalization costs as much as the
// log itself on the δI paths, which spend a large share of their time
// here. The ≤2 ulp difference from math.Log2 is far inside every δI
// tolerance; what matters for determinism is only that every weighted-sum
// δI kernel (LIMBO's DCFs and the AIB engine) uses this one function.
func XLog2(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x * math.Log(x) * invLn2
}

// Entropy returns H(V) = -Σ p(v) log2 p(v) for the distribution v.
// The vector need not be normalized to call this, but the information-
// theoretic meaning assumes unit mass; callers normalize first.
func Entropy(v Vec) float64 {
	h := 0.0
	for _, e := range v {
		if e.P > 0 {
			h -= e.P * log2(e.P)
		}
	}
	return h
}

// EntropyDense returns the entropy of a dense distribution.
func EntropyDense(p []float64) float64 {
	h := 0.0
	for _, x := range p {
		if x > 0 {
			h -= x * log2(x)
		}
	}
	return h
}

// NH is the count-entropy kernel: n·H in bits of n items split into
// classes of the given sizes, F(n) − Σ F(c) with F = XLog2. It sorts
// counts in place and sums them in ascending order, so the result
// depends only on the multiset, and one class of n gives exactly 0. A
// class of one adds F(1) = 0, so callers may leave singletons out of
// counts; they still count in n, which the caller passes.
func NH(n int, counts []int) float64 {
	slices.Sort(counts)
	s := 0.0
	for _, c := range counts {
		s += XLog2(float64(c))
	}
	return XLog2(float64(n)) - s
}

// JointDist is a discrete joint distribution over (X, T) given as rows:
// for each x, a prior p(x) and the conditional p(T|x).
type JointDist struct {
	PX    []float64 // p(x), one per row
	CondT []Vec     // p(T|x), one per row
}

// MutualInfo returns I(X;T) = H(T) - H(T|X) for the joint distribution.
// It computes the marginal p(T) by mixing the conditionals.
func (j *JointDist) MutualInfo() float64 {
	return j.MarginalEntropyT() - j.CondEntropyT()
}

// CondEntropyT returns H(T|X) = Σ_x p(x) H(T|x).
func (j *JointDist) CondEntropyT() float64 {
	h := 0.0
	for i, px := range j.PX {
		if px > 0 {
			h += px * Entropy(j.CondT[i])
		}
	}
	return h
}

// MarginalEntropyT returns H(T) of the T-marginal p(t) = Σ_x p(x) p(t|x).
// Each coordinate accumulates in row order and the final sum runs in
// ascending coordinate order: iterating the accumulator map directly
// would make the low float bits depend on Go's randomized map order, and
// results derived from the same data must be byte-for-byte reproducible
// across runs. Dense coordinates (max id ≤ 32× the entries mixed, the
// DCF rank index's rule) accumulate in a slice instead of the map, with
// the same bits.
func (j *JointDist) MarginalEntropyT() float64 {
	lo, hi, entries := int32(math.MaxInt32), int32(-1), 0
	for i, px := range j.PX {
		if px > 0 {
			for _, e := range j.CondT[i] {
				lo, hi = min(lo, e.Idx), max(hi, e.Idx)
			}
			entries += len(j.CondT[i])
		}
	}
	if entries > 0 && lo >= 0 && int(hi) <= 32*entries {
		marg := make([]float64, int(hi)+1)
		for i, px := range j.PX {
			if px > 0 {
				for _, e := range j.CondT[i] {
					marg[e.Idx] += px * e.P
				}
			}
		}
		h := 0.0
		for _, p := range marg {
			if p > 0 {
				h -= p * log2(p)
			}
		}
		return h
	}
	return j.marginalEntropyMap()
}

// marginalEntropyMap is MarginalEntropyT over a map accumulator, for
// sparse coordinates.
func (j *JointDist) marginalEntropyMap() float64 {
	marg := map[int32]float64{}
	for i, px := range j.PX {
		if px <= 0 {
			continue
		}
		for _, e := range j.CondT[i] {
			marg[e.Idx] += px * e.P
		}
	}
	idxs := make([]int32, 0, len(marg))
	for idx := range marg {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	h := 0.0
	for _, idx := range idxs {
		if p := marg[idx]; p > 0 {
			h -= p * log2(p)
		}
	}
	return h
}

// JS returns the weighted Jensen-Shannon divergence
//
//	D_JS^{w1,w2}[p, q] = w1·D_KL[p ‖ m] + w2·D_KL[q ‖ m],  m = w1·p + w2·q
//
// with w1 + w2 = 1. It is computed in a single pass over the merged
// supports, never materializing m. The result lies in [0, 1] and is zero
// iff p = q (on the common support).
func JS(w1 float64, p Vec, w2 float64, q Vec) float64 {
	d := 0.0
	i, j := 0, 0
	add := func(pi, qi float64) {
		m := w1*pi + w2*qi
		if pi > 0 {
			d += w1 * pi * log2(pi/m)
		}
		if qi > 0 {
			d += w2 * qi * log2(qi/m)
		}
	}
	for i < len(p) && j < len(q) {
		switch {
		case p[i].Idx < q[j].Idx:
			add(p[i].P, 0)
			i++
		case p[i].Idx > q[j].Idx:
			add(0, q[j].P)
			j++
		default:
			add(p[i].P, q[j].P)
			i++
			j++
		}
	}
	for ; i < len(p); i++ {
		add(p[i].P, 0)
	}
	for ; j < len(q); j++ {
		add(0, q[j].P)
	}
	if d < 0 { // numerical noise on identical vectors
		d = 0
	}
	return d
}

// DeltaI returns the information loss of merging two clusters, equation
// (3) of the paper:
//
//	δI(c1, c2) = [p(c1) + p(c2)] · D_JS^{π1,π2}[p(T|c1), p(T|c2)]
//
// where πi = p(ci)/(p(c1)+p(c2)). The loss is non-negative and zero iff
// the conditionals are identical.
func DeltaI(p1 float64, t1 Vec, p2 float64, t2 Vec) float64 {
	tot := p1 + p2
	if tot <= 0 {
		return 0
	}
	return tot * JS(p1/tot, t1, p2/tot, t2)
}
