// Package it provides the information-theoretic kernel used throughout
// structmine: entropy, conditional entropy, mutual information, the
// Kullback-Leibler and Jensen-Shannon divergences, and a sparse
// probability-vector representation tuned for the merge-heavy access
// pattern of agglomerative Information Bottleneck clustering.
//
// All logarithms are base 2; every quantity is measured in bits.
// The convention 0·log 0 = 0 is applied everywhere.
package it

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Entry is one non-zero coordinate of a sparse probability vector.
type Entry struct {
	Idx int32   // coordinate (tuple id, value id, cluster id, ...)
	P   float64 // probability mass at Idx
}

// Vec is a sparse probability distribution: entries sorted by Idx with
// strictly positive mass. A Vec is immutable by convention; operations
// return fresh vectors.
type Vec []Entry

// NewVec builds a Vec from index/mass pairs. Indices may repeat (masses
// are summed) and appear in any order. Non-positive masses are dropped.
func NewVec(entries []Entry) Vec {
	if len(entries) == 0 {
		return nil
	}
	cp := make([]Entry, 0, len(entries))
	for _, e := range entries {
		if e.P > 0 {
			cp = append(cp, e)
		}
	}
	sort.Slice(cp, func(i, j int) bool { return cp[i].Idx < cp[j].Idx })
	out := cp[:0]
	for _, e := range cp {
		if n := len(out); n > 0 && out[n-1].Idx == e.Idx {
			out[n-1].P += e.P
		} else {
			out = append(out, e)
		}
	}
	return Vec(out)
}

// Uniform returns the uniform distribution over the given indices —
// NewVec of the same entries, sorted with a typed sort since the keys
// are distinct. Duplicate indices are rejected with a panic since they
// would silently break normalization; callers construct index lists
// themselves.
func Uniform(indices []int32) Vec {
	if len(indices) == 0 {
		return nil
	}
	p := 1.0 / float64(len(indices))
	es := make([]Entry, len(indices))
	for i, ix := range indices {
		es[i] = Entry{Idx: ix, P: p}
	}
	slices.SortFunc(es, func(a, b Entry) int { return cmp.Compare(a.Idx, b.Idx) })
	for i := 1; i < len(es); i++ {
		if es[i-1].Idx == es[i].Idx {
			panic("it: Uniform called with duplicate indices")
		}
	}
	return Vec(es)
}

// Sum returns the total mass of v.
func (v Vec) Sum() float64 {
	s := 0.0
	for _, e := range v {
		s += e.P
	}
	return s
}

// At returns the mass at index i (zero if absent).
func (v Vec) At(i int32) float64 {
	lo, hi := 0, len(v)
	for lo < hi {
		mid := (lo + hi) / 2
		if v[mid].Idx < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(v) && v[lo].Idx == i {
		return v[lo].P
	}
	return 0
}

// Support returns the number of non-zero coordinates.
func (v Vec) Support() int { return len(v) }

// Gallop returns the position of the first element of idx[from:] that is
// ≥ target (as an absolute index into idx), plus whether idx holds target
// exactly there. It galloping-searches: doubling steps from `from`, then
// a binary search within the final bracket. Scanning a sorted probe list
// left to right with ascending targets therefore costs
// O(k·log(n/k)) total for k probes into n coordinates — the kernel under
// the sparse-DCF δI and merge scans, which probe a small support against
// a large one far more often than the reverse.
func Gallop(idx []int32, from int, target int32) (pos int, found bool) {
	n := len(idx)
	if from >= n || idx[from] >= target {
		if from < n && idx[from] == target {
			return from, true
		}
		return from, false
	}
	// Invariant: idx[lo] < target. Double until idx[hi] >= target or end.
	lo, step := from, 1
	hi := from + step
	for hi < n && idx[hi] < target {
		lo = hi
		step <<= 1
		hi = from + step
	}
	if hi > n {
		hi = n
	}
	// Binary search in (lo, hi]: first position with idx[pos] >= target.
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if idx[mid] < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	if hi < n && idx[hi] == target {
		return hi, true
	}
	return hi, false
}

// Scale returns v with every mass multiplied by a (a > 0).
func (v Vec) Scale(a float64) Vec {
	out := make(Vec, len(v))
	for i, e := range v {
		out[i] = Entry{Idx: e.Idx, P: e.P * a}
	}
	return out
}

// Normalize returns v scaled to unit mass. A zero vector is returned
// unchanged.
func (v Vec) Normalize() Vec {
	s := v.Sum()
	if s <= 0 {
		return v
	}
	return v.Scale(1 / s)
}

// Mix returns w1·p + w2·q, the weighted mixture of two distributions.
// This is exactly equation (2) of the paper when w1 = p(c1)/p(c*) and
// w2 = p(c2)/p(c*).
func Mix(w1 float64, p Vec, w2 float64, q Vec) Vec {
	out := make(Vec, 0, len(p)+len(q))
	i, j := 0, 0
	for i < len(p) && j < len(q) {
		switch {
		case p[i].Idx < q[j].Idx:
			out = append(out, Entry{p[i].Idx, w1 * p[i].P})
			i++
		case p[i].Idx > q[j].Idx:
			out = append(out, Entry{q[j].Idx, w2 * q[j].P})
			j++
		default:
			out = append(out, Entry{p[i].Idx, w1*p[i].P + w2*q[j].P})
			i++
			j++
		}
	}
	for ; i < len(p); i++ {
		out = append(out, Entry{p[i].Idx, w1 * p[i].P})
	}
	for ; j < len(q); j++ {
		out = append(out, Entry{q[j].Idx, w2 * q[j].P})
	}
	return out
}

// Equal reports whether two vectors are identical up to tol in each
// coordinate.
func (v Vec) Equal(w Vec, tol float64) bool {
	i, j := 0, 0
	for i < len(v) && j < len(w) {
		switch {
		case v[i].Idx < w[j].Idx:
			if v[i].P > tol {
				return false
			}
			i++
		case v[i].Idx > w[j].Idx:
			if w[j].P > tol {
				return false
			}
			j++
		default:
			if math.Abs(v[i].P-w[j].P) > tol {
				return false
			}
			i++
			j++
		}
	}
	for ; i < len(v); i++ {
		if v[i].P > tol {
			return false
		}
	}
	for ; j < len(w); j++ {
		if w[j].P > tol {
			return false
		}
	}
	return true
}

// String renders the vector compactly for debugging.
func (v Vec) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d:%.4g", e.Idx, e.P)
	}
	b.WriteByte('}')
	return b.String()
}
