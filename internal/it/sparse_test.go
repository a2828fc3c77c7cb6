package it

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewVecSortsAndMergesDuplicates(t *testing.T) {
	v := NewVec([]Entry{{3, 0.25}, {1, 0.5}, {3, 0.25}})
	if len(v) != 2 {
		t.Fatalf("want 2 entries, got %d (%v)", len(v), v)
	}
	if v[0].Idx != 1 || v[1].Idx != 3 {
		t.Fatalf("not sorted: %v", v)
	}
	if !almostEqual(v[1].P, 0.5, 1e-12) {
		t.Fatalf("duplicate masses not merged: %v", v)
	}
}

func TestNewVecDropsNonPositive(t *testing.T) {
	v := NewVec([]Entry{{1, 0}, {2, -0.5}, {3, 0.5}})
	if len(v) != 1 || v[0].Idx != 3 {
		t.Fatalf("want only idx 3, got %v", v)
	}
}

func TestNewVecEmpty(t *testing.T) {
	if v := NewVec(nil); v != nil {
		t.Fatalf("want nil, got %v", v)
	}
}

func TestUniform(t *testing.T) {
	v := Uniform([]int32{5, 2, 9})
	if len(v) != 3 {
		t.Fatalf("want 3 entries, got %v", v)
	}
	for _, e := range v {
		if !almostEqual(e.P, 1.0/3, 1e-12) {
			t.Fatalf("not uniform: %v", v)
		}
	}
	if !almostEqual(v.Sum(), 1, 1e-12) {
		t.Fatalf("sum %v != 1", v.Sum())
	}
}

// Uniform sorts its distinct indices with a typed sort; the result must
// be NewVec's over the same entries, entry for entry and bit for bit.
func TestUniformMatchesNewVec(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(40)
		seen := map[int32]bool{}
		idx := make([]int32, 0, n)
		for len(idx) < n {
			ix := int32(r.Intn(4 * n))
			if trial%5 == 0 {
				ix = int32(r.Uint32()) // the whole int32 range, negatives included
			}
			if !seen[ix] {
				seen[ix] = true
				idx = append(idx, ix)
			}
		}
		es := make([]Entry, n)
		for i, ix := range idx {
			es[i] = Entry{Idx: ix, P: 1.0 / float64(n)}
		}
		got, want := Uniform(idx), NewVec(es)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d entries, NewVec %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Idx != want[i].Idx || math.Float64bits(got[i].P) != math.Float64bits(want[i].P) {
				t.Fatalf("trial %d: entry %d is %v, NewVec %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestUniformPanicsOnDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on duplicate indices")
		}
	}()
	Uniform([]int32{1, 1})
}

func TestAt(t *testing.T) {
	v := NewVec([]Entry{{1, 0.2}, {5, 0.3}, {9, 0.5}})
	cases := []struct {
		idx  int32
		want float64
	}{{0, 0}, {1, 0.2}, {4, 0}, {5, 0.3}, {9, 0.5}, {10, 0}}
	for _, c := range cases {
		if got := v.At(c.idx); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("At(%d) = %v, want %v", c.idx, got, c.want)
		}
	}
}

func TestScaleNormalize(t *testing.T) {
	v := NewVec([]Entry{{1, 2}, {2, 6}})
	n := v.Normalize()
	if !almostEqual(n.Sum(), 1, 1e-12) {
		t.Fatalf("normalize sum %v", n.Sum())
	}
	if !almostEqual(n.At(1), 0.25, 1e-12) || !almostEqual(n.At(2), 0.75, 1e-12) {
		t.Fatalf("normalize wrong: %v", n)
	}
	if z := Vec(nil).Normalize(); z != nil {
		t.Fatalf("zero vec should stay nil")
	}
}

func TestMixMatchesPaperEquation2(t *testing.T) {
	// Merging clusters with masses 1/3 and 2/3 mixes their conditionals
	// with those weights.
	p := Uniform([]int32{0, 1})  // (1/2, 1/2, 0)
	q := Uniform([]int32{1, 2})  // (0, 1/2, 1/2)
	m := Mix(1.0/3, p, 2.0/3, q) // (1/6, 1/2, 1/3)
	want := []float64{1.0 / 6, 0.5, 1.0 / 3}
	for i, w := range want {
		if got := m.At(int32(i)); !almostEqual(got, w, 1e-12) {
			t.Errorf("m[%d] = %v, want %v", i, got, w)
		}
	}
	if !almostEqual(m.Sum(), 1, 1e-12) {
		t.Fatalf("mixture not normalized: %v", m.Sum())
	}
}

func TestMixDisjointSupports(t *testing.T) {
	p := Uniform([]int32{0})
	q := Uniform([]int32{7})
	m := Mix(0.5, p, 0.5, q)
	if len(m) != 2 || !almostEqual(m.At(0), 0.5, 1e-12) || !almostEqual(m.At(7), 0.5, 1e-12) {
		t.Fatalf("bad disjoint mix: %v", m)
	}
}

func TestEqual(t *testing.T) {
	a := NewVec([]Entry{{1, 0.5}, {2, 0.5}})
	b := NewVec([]Entry{{1, 0.5}, {2, 0.5}})
	c := NewVec([]Entry{{1, 0.6}, {2, 0.4}})
	d := NewVec([]Entry{{1, 0.5}, {3, 0.5}})
	if !a.Equal(b, 1e-12) {
		t.Error("a should equal b")
	}
	if a.Equal(c, 1e-3) {
		t.Error("a should differ from c")
	}
	if a.Equal(d, 1e-3) {
		t.Error("a should differ from d (different support)")
	}
	// Tolerance absorbs tiny support mismatch.
	e := NewVec([]Entry{{1, 0.5}, {2, 0.5}, {3, 1e-15}})
	if !a.Equal(e, 1e-12) {
		t.Error("tiny extra mass within tol should compare equal")
	}
}

func TestStringFormat(t *testing.T) {
	v := NewVec([]Entry{{1, 0.5}, {2, 0.5}})
	if s := v.String(); s != "{1:0.5, 2:0.5}" {
		t.Fatalf("String() = %q", s)
	}
}

// randomDist builds a random normalized sparse vector for property tests.
func randomDist(r *rand.Rand, maxIdx int32, maxSupport int) Vec {
	n := 1 + r.Intn(maxSupport)
	seen := map[int32]bool{}
	es := make([]Entry, 0, n)
	for len(es) < n {
		ix := int32(r.Intn(int(maxIdx)))
		if seen[ix] {
			continue
		}
		seen[ix] = true
		es = append(es, Entry{ix, r.Float64() + 1e-3})
	}
	return NewVec(es).Normalize()
}

func TestPropMixMassConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomDist(r, 64, 10)
		q := randomDist(r, 64, 10)
		w := r.Float64()
		m := Mix(w, p, 1-w, q)
		return almostEqual(m.Sum(), 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMixIsSorted(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomDist(r, 64, 10)
		q := randomDist(r, 64, 10)
		m := Mix(0.3, p, 0.7, q)
		for i := 1; i < len(m); i++ {
			if m[i-1].Idx >= m[i].Idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSupport(t *testing.T) {
	if got := Uniform([]int32{4, 7, 9}).Support(); got != 3 {
		t.Fatalf("Support: %d", got)
	}
	if got := Vec(nil).Support(); got != 0 {
		t.Fatalf("empty support: %d", got)
	}
}
