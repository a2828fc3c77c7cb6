// Package joins discovers joinable attribute pairs across relations by
// value-set resemblance — the Bellman-style summaries the paper
// positions its tools against ("identifying co-occurrence of values
// across different relations to identify join paths and correspondences
// between attributes"). The paper's evaluation *assumes* the DB2 join
// R = (E ⋈ D) ⋈ P; a redesign tool working from raw tables first needs
// these candidates.
//
// Each attribute gets a bottom-k hash sketch of its distinct non-NULL
// values (exact sets are kept when small), built from the value
// dictionary of a relation.Columns: O(D) hashes and no row read over a
// colstore table; relation.AsColumns first derives its value index in one
// O(n·m) pass over the rows. Jaccard resemblance is estimated from merged
// sketches; directed containment |A∩B| / |A| identifies foreign-key-like
// inclusions even when domains differ in size.
package joins

import (
	"hash/fnv"
	"slices"
	"sort"

	"structmine/internal/relation"
)

// SketchSize is k for the bottom-k sketches; sets up to this size are
// represented exactly, so small dimension tables compare exactly.
const SketchSize = 256

// Signature summarizes one attribute's value set.
type Signature struct {
	Relation string
	Attr     string
	// Distinct counts distinct non-NULL values.
	Distinct int
	// hashes is the bottom-k of the value hash set, ascending.
	hashes []uint64
	// exact is true when hashes covers the whole value set.
	exact bool
}

// Signatures sketches every attribute of the relation.
func Signatures(c relation.Columns) ([]Signature, error) {
	strs, err := c.ValueStrings()
	if err != nil {
		return nil, err
	}
	out := make([]Signature, 0, c.M())
	var runs []relation.Run
	for a := 0; a < c.M(); a++ {
		var hashes []uint64
		if err := c.VisitValues(a, &runs, func(v int32, _ int, _ []relation.Run) error {
			if strs[v] != relation.Null {
				hashes = append(hashes, hashValue(strs[v]))
			}
			return nil
		}); err != nil {
			return nil, err
		}
		slices.Sort(hashes)
		hashes = slices.Compact(hashes) // colliding hashes count once
		sig := Signature{
			Relation: c.Name(),
			Attr:     c.AttrNames()[a],
			Distinct: len(hashes),
			exact:    len(hashes) <= SketchSize,
		}
		if len(hashes) > SketchSize {
			hashes = hashes[:SketchSize]
		}
		sig.hashes = hashes
		out = append(out, sig)
	}
	return out, nil
}

func hashValue(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	// FNV alone is length-biased on short similar strings (e.g. "v7" vs
	// "v1007"), which breaks the uniformity the bottom-k estimator needs;
	// a splitmix64 finalizer restores avalanche.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Resemblance estimates the Jaccard coefficient |A∩B| / |A∪B| of two
// signatures. Exact when both sets fit in the sketch.
func Resemblance(a, b Signature) float64 {
	if a.Distinct == 0 || b.Distinct == 0 {
		return 0
	}
	if a.exact && b.exact {
		inter := intersectSorted(a.hashes, b.hashes)
		union := a.Distinct + b.Distinct - inter
		return float64(inter) / float64(union)
	}
	// Bottom-k of the union; count how many of those lie in both sketches.
	k := min(SketchSize, len(a.hashes)+len(b.hashes), a.Distinct+b.Distinct)
	union := mergeBottomK(a.hashes, b.hashes, k)
	inBoth := 0
	for _, h := range union {
		if containsSorted(a.hashes, h) && containsSorted(b.hashes, h) {
			inBoth++
		}
	}
	if len(union) == 0 {
		return 0
	}
	return float64(inBoth) / float64(len(union))
}

// Containment estimates |A∩B| / |A| — how much of a's value set appears
// in b (1.0 for a foreign key fully covered by its target).
func Containment(a, b Signature) float64 {
	if a.Distinct == 0 {
		return 0
	}
	if a.exact && b.exact {
		return float64(intersectSorted(a.hashes, b.hashes)) / float64(a.Distinct)
	}
	j := Resemblance(a, b)
	if j == 0 {
		return 0
	}
	// |A∩B| = J·|A∪B| and |A∪B| = (|A|+|B|)/(1+J).
	inter := j * float64(a.Distinct+b.Distinct) / (1 + j)
	c := inter / float64(a.Distinct)
	if c > 1 {
		c = 1
	}
	return c
}

// Candidate is one joinable attribute pair, directed: From's values are
// (mostly) contained in To's.
type Candidate struct {
	FromRelation, FromAttr string
	ToRelation, ToAttr     string
	Containment            float64
	Jaccard                float64
	FromDistinct           int
	ToDistinct             int
}

// FindJoinable compares every attribute pair across (and within)
// relations and returns the candidates with containment ≥ minContainment
// and at least minDistinct distinct values, strongest first. Pairs
// within the same relation are included only across different
// attributes (self-correspondences are trivial).
func FindJoinable(rels []relation.Columns, minContainment float64, minDistinct int) ([]Candidate, error) {
	if minDistinct < 1 {
		minDistinct = 1
	}
	var sigs []Signature
	for _, c := range rels {
		s, err := Signatures(c)
		if err != nil {
			return nil, err
		}
		sigs = append(sigs, s...)
	}
	var out []Candidate
	for i := range sigs {
		for j := range sigs {
			if i == j {
				continue
			}
			a, b := sigs[i], sigs[j]
			if a.Relation == b.Relation && a.Attr == b.Attr {
				continue
			}
			if a.Distinct < minDistinct || b.Distinct < minDistinct {
				continue
			}
			c := Containment(a, b)
			if c < minContainment {
				continue
			}
			out = append(out, Candidate{
				FromRelation: a.Relation, FromAttr: a.Attr,
				ToRelation: b.Relation, ToAttr: b.Attr,
				Containment: c, Jaccard: Resemblance(a, b),
				FromDistinct: a.Distinct, ToDistinct: b.Distinct,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Containment != out[j].Containment {
			return out[i].Containment > out[j].Containment
		}
		if out[i].Jaccard != out[j].Jaccard {
			return out[i].Jaccard > out[j].Jaccard
		}
		if out[i].FromRelation != out[j].FromRelation {
			return out[i].FromRelation < out[j].FromRelation
		}
		return out[i].FromAttr < out[j].FromAttr
	})
	return out, nil
}

func intersectSorted(a, b []uint64) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

func containsSorted(a []uint64, h uint64) bool {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(a) && a[lo] == h
}

func mergeBottomK(a, b []uint64, k int) []uint64 {
	out := make([]uint64, 0, k)
	i, j := 0, 0
	var last uint64
	haveLast := false
	for len(out) < k && (i < len(a) || j < len(b)) {
		var h uint64
		switch {
		case i >= len(a):
			h = b[j]
			j++
		case j >= len(b):
			h = a[i]
			i++
		case a[i] <= b[j]:
			h = a[i]
			i++
		default:
			h = b[j]
			j++
		}
		if haveLast && h == last {
			continue
		}
		out = append(out, h)
		last, haveLast = h, true
	}
	return out
}
