package it

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestEntropyUniform(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 100} {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		h := Entropy(Uniform(idx))
		want := math.Log2(float64(n))
		if !almostEqual(h, want, 1e-9) {
			t.Errorf("H(uniform %d) = %v, want %v", n, h, want)
		}
	}
}

func TestEntropyPointMass(t *testing.T) {
	if h := Entropy(NewVec([]Entry{{42, 1}})); !almostEqual(h, 0, 1e-12) {
		t.Fatalf("point mass entropy = %v", h)
	}
}

func TestEntropyDense(t *testing.T) {
	if h := EntropyDense([]float64{0.5, 0.5}); !almostEqual(h, 1, 1e-12) {
		t.Fatalf("H(1/2,1/2) = %v", h)
	}
	if h := EntropyDense([]float64{1, 0, 0}); !almostEqual(h, 0, 1e-12) {
		t.Fatalf("H(1,0,0) = %v", h)
	}
}

// TestNH: n·H over class counts on the cases H is known for, a left-out
// singleton included.
func TestNH(t *testing.T) {
	for _, c := range []struct {
		n      int
		counts []int
		h      float64
	}{
		{4, []int{1, 1, 1, 1}, 2},
		{5, []int{5}, 0},
		{4, []int{3, 1}, 0.8112781244591328}, // H(3/4, 1/4)
		{4, []int{3}, 0.8112781244591328},    // the singleton left out
	} {
		if h := NH(c.n, c.counts) / float64(c.n); !almostEqual(h, c.h, 1e-12) {
			t.Errorf("NH(%d, %v)/n = %v, want %v", c.n, c.counts, h, c.h)
		}
	}
	if nh := NH(0, nil); nh != 0 {
		t.Errorf("NH(0, nil) = %v", nh)
	}
}

// plogp is −Σ p·log₂p over counts in input order, p = c/Σ c: the
// textbook form, sharing no arithmetic with NH.
func plogp(counts []int) float64 {
	n := 0
	for _, c := range counts {
		n += c
	}
	h := 0.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		h -= p * math.Log2(p)
	}
	return h
}

// randomCounts is a multiset of 1–300 class sizes in [1, 2^s] for a
// random scale s < 20, and its total.
func randomCounts(r *rand.Rand) ([]int, int) {
	counts, n := make([]int, 1+r.Intn(300)), 0
	scale := 1 << r.Intn(20)
	for i := range counts {
		counts[i] = 1 + r.Intn(scale)
		n += counts[i]
	}
	return counts, n
}

// TestPropNHPermutationInvariant: NH's bits depend only on the multiset
// of counts — every permutation of small multisets, and seeded shuffles
// of large ones.
func TestPropNHPermutationInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for trial := 0; trial < 200; trial++ {
		counts, n := randomCounts(r)
		if trial%2 == 0 {
			counts = counts[:min(len(counts), 1+r.Intn(6))]
			n = 0
			for _, c := range counts {
				n += c
			}
		}
		want := math.Float64bits(NH(n, slices.Clone(counts)))
		check := func(perm []int) {
			if got := math.Float64bits(NH(n, slices.Clone(perm))); got != want {
				t.Fatalf("NH(%d, %v) = %x, want %x", n, perm, got, want)
			}
		}
		if len(counts) <= 6 {
			permute(counts, len(counts), check)
			continue
		}
		for range 20 {
			r.Shuffle(len(counts), func(i, j int) { counts[i], counts[j] = counts[j], counts[i] })
			check(counts)
		}
	}
}

// permute calls f on every permutation of a[:k] (Heap's algorithm).
func permute(a []int, k int, f func([]int)) {
	if k <= 1 {
		f(a)
		return
	}
	for i := 0; i < k; i++ {
		permute(a, k-1, f)
		if k%2 == 0 {
			a[i], a[k-1] = a[k-1], a[i]
		} else {
			a[0], a[k-1] = a[k-1], a[0]
		}
	}
}

// TestPropNHOneClassIsZero: a single class of every item is exactly 0
// bits, whatever n.
func TestPropNHOneClassIsZero(t *testing.T) {
	if err := quick.Check(func(n uint32) bool { return NH(int(n), []int{int(n)}) == 0 }, nil); err != nil {
		t.Error(err)
	}
}

// TestPropNHSingletonsAddNothing: classes of one item add F(1) = 0, so
// appending them leaves NH's bits unchanged for the same n.
func TestPropNHSingletonsAddNothing(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for trial := 0; trial < 500; trial++ {
		counts, n := randomCounts(r)
		ones := r.Intn(100)
		want := NH(n+ones, slices.Clone(counts))
		for range ones {
			counts = append(counts, 1)
		}
		if got := NH(n+ones, counts); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("NH with %d ones appended = %v, without %v", ones, got, want)
		}
	}
}

// TestPropNHMatchesPLogP: NH/n agrees with the textbook −Σ p·log₂p to
// 1e-12 relative on random multisets. A split as skewed as {n−1, 1}
// loses digits in both forms — F(n) − F(n−1) cancels, and log₂p is
// taken of p next to 1 — so there the two agree only to a few ulps of
// log₂n absolute (4e-11 relative at n = 10⁶).
func TestPropNHMatchesPLogP(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for trial := 0; trial < 2000; trial++ {
		counts, n := randomCounts(r)
		want := plogp(counts)
		if got := NH(n, counts) / float64(n); math.Abs(got-want) > 1e-12*want {
			t.Fatalf("NH/n = %v, −Σ p·log₂p = %v over %d classes of %d", got, want, len(counts), n)
		}
	}
	for _, n := range []int{2, 10, 1000, 1 << 20, 1 << 40} {
		want := plogp([]int{n - 1, 1})
		if got := NH(n, []int{n - 1, 1}) / float64(n); math.Abs(got-want) > 8*0x1p-52*math.Log2(float64(n)) {
			t.Errorf("{%d, 1}: NH/n = %v, −Σ p·log₂p = %v", n-1, got, want)
		}
	}
}

func TestJSIdentical(t *testing.T) {
	p := NewVec([]Entry{{0, 0.3}, {5, 0.7}})
	if d := JS(0.4, p, 0.6, p); !almostEqual(d, 0, 1e-12) {
		t.Fatalf("JS(p,p) = %v", d)
	}
}

func TestJSDisjointIsEntropyOfWeights(t *testing.T) {
	// For disjoint supports, JS^{w,1-w} = H(w, 1-w); with w=1/2 this is 1.
	p := Uniform([]int32{0})
	q := Uniform([]int32{1})
	if d := JS(0.5, p, 0.5, q); !almostEqual(d, 1, 1e-12) {
		t.Fatalf("JS disjoint = %v, want 1", d)
	}
	w := 0.25
	want := EntropyDense([]float64{w, 1 - w})
	if d := JS(w, p, 1-w, q); !almostEqual(d, want, 1e-12) {
		t.Fatalf("JS disjoint weighted = %v, want %v", d, want)
	}
}

func TestJSSymmetryUnderSwappedWeights(t *testing.T) {
	p := NewVec([]Entry{{0, 0.9}, {1, 0.1}})
	q := NewVec([]Entry{{0, 0.2}, {2, 0.8}})
	if a, b := JS(0.3, p, 0.7, q), JS(0.7, q, 0.3, p); !almostEqual(a, b, 1e-12) {
		t.Fatalf("JS not symmetric: %v vs %v", a, b)
	}
}

// TestDeltaIPaperWorkedExample reproduces the attribute-clustering numbers
// of Section 7 (Figures 9-10): attributes A, B, C expressed over the two
// duplicate value groups {a,1} and {2,x} with matrix F rows
// A=(2,0), B=(2,3), C=(0,4), each attribute having prior 1/3.
func TestDeltaIPaperWorkedExample(t *testing.T) {
	pA := NewVec([]Entry{{0, 1}})
	pB := NewVec([]Entry{{0, 0.4}, {1, 0.6}})
	pC := NewVec([]Entry{{1, 1}})
	w := 1.0 / 3

	dBC := DeltaI(w, pB, w, pC)
	dAB := DeltaI(w, pA, w, pB)
	dAC := DeltaI(w, pA, w, pC)
	if !(dBC < dAB && dAB < dAC) {
		t.Fatalf("merge order wrong: dBC=%v dAB=%v dAC=%v", dBC, dAB, dAC)
	}
	if !almostEqual(dBC, 0.15768, 1e-4) {
		t.Errorf("δI(B,C) = %v, want ≈0.1577", dBC)
	}

	// Merge B and C, then merge A with the result; the paper reports the
	// final loss as approximately 0.52.
	pBC := Mix(0.5, pB, 0.5, pC)
	dFinal := DeltaI(w, pA, 2*w, pBC)
	if !almostEqual(dFinal, 0.5155, 2e-3) {
		t.Errorf("final merge loss = %v, want ≈0.5155 (paper: ~0.52)", dFinal)
	}
}

func TestJointDistMutualInfo(t *testing.T) {
	// Perfectly informative: each x maps to its own t. I = H(T) = log2(3).
	j := &JointDist{
		PX:    []float64{1.0 / 3, 1.0 / 3, 1.0 / 3},
		CondT: []Vec{Uniform([]int32{0}), Uniform([]int32{1}), Uniform([]int32{2})},
	}
	if mi := j.MutualInfo(); !almostEqual(mi, math.Log2(3), 1e-12) {
		t.Fatalf("MI = %v, want log2 3", mi)
	}
	// Independent: every x has the same conditional. I = 0.
	c := Uniform([]int32{0, 1})
	j2 := &JointDist{PX: []float64{0.5, 0.5}, CondT: []Vec{c, c}}
	if mi := j2.MutualInfo(); !almostEqual(mi, 0, 1e-12) {
		t.Fatalf("MI independent = %v, want 0", mi)
	}
}

// --- property-based tests ---

func TestPropEntropyBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomDist(r, 128, 20)
		h := Entropy(v)
		return h >= -1e-12 && h <= math.Log2(float64(len(v)))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropJSBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomDist(r, 64, 12)
		q := randomDist(r, 64, 12)
		w := r.Float64()
		d := JS(w, p, 1-w, q)
		return d >= 0 && d <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropDeltaINonNegative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomDist(r, 64, 12)
		q := randomDist(r, 64, 12)
		m1, m2 := r.Float64()+1e-6, r.Float64()+1e-6
		return DeltaI(m1, p, m2, q) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// δI equals the drop in I(C;T): I before merge minus I after merge, when
// the two clusters form the whole space (plus an untouched remainder).
func TestPropDeltaIEqualsMutualInfoDrop(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomDist(r, 32, 8)
		q := randomDist(r, 32, 8)
		o := randomDist(r, 32, 8) // untouched third cluster
		w1, w2, w3 := 0.3, 0.5, 0.2
		before := &JointDist{PX: []float64{w1, w2, w3}, CondT: []Vec{p, q, o}}
		merged := Mix(w1/(w1+w2), p, w2/(w1+w2), q)
		after := &JointDist{PX: []float64{w1 + w2, w3}, CondT: []Vec{merged, o}}
		drop := before.MutualInfo() - after.MutualInfo()
		return almostEqual(drop, DeltaI(w1, p, w2, q), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
