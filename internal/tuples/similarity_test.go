package tuples

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "", 3},
		{"", "xy", 2},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"Pat", "Pat~1", 2},
		{"000010", "k:000010:3", 4},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPropLevenshteinMetric(t *testing.T) {
	gen := func(r *rand.Rand) string {
		n := r.Intn(8)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(3))
		}
		return string(b)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := gen(r), gen(r), gen(r)
		dab, dba := Levenshtein(a, b), Levenshtein(b, a)
		if dab != dba { // symmetry
			return false
		}
		if (dab == 0) != (a == b) { // identity of indiscernibles
			return false
		}
		// Triangle inequality.
		return Levenshtein(a, c) <= dab+Levenshtein(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarity(t *testing.T) {
	if s := Similarity("abc", "abc"); s != 1 {
		t.Fatalf("equal strings: %v", s)
	}
	if s := Similarity("", ""); s != 1 {
		t.Fatalf("empty strings: %v", s)
	}
	if s := Similarity("abc", "xyz"); s != 0 {
		t.Fatalf("disjoint strings: %v", s)
	}
	if s := Similarity("Pat", "Pat~1"); math.Abs(s-0.6) > 1e-12 {
		t.Fatalf("Pat vs Pat~1: %v, want 0.6", s)
	}
}

func TestRefineDuplicates(t *testing.T) {
	// Two real near-duplicate pairs plus an unrelated pair forced into a
	// group; refinement must rank the typographic pairs first.
	r := build(t, []string{"A", "B", "C", "D", "E", "F"},
		[]string{"alpha", "beta", "gamma", "delta", "eps", "zeta"},
		[]string{"alpha", "beta", "gamma", "delta", "eps", "zeta~1"}, // near dup of 0
		[]string{"one", "two", "three", "four", "five", "six"},
		[]string{"one", "two", "three", "four", "five", "sixy"}, // near dup of 2
	)
	rep := FindDuplicatesCtx(context.Background(), r, 0.5, 4)
	pairs := RefineDuplicates(r, rep, 0.0)
	if len(pairs) == 0 {
		t.Fatal("no pairs scored")
	}
	// Best pairs must be the injected near-duplicates with high scores.
	top := pairs[0]
	if !((top.T1 == 0 && top.T2 == 1) || (top.T1 == 2 && top.T2 == 3)) {
		t.Fatalf("top pair (%d,%d), want a near-duplicate pair", top.T1, top.T2)
	}
	if top.Similarity < 0.6 || top.Agree != 5 {
		t.Fatalf("top pair score %+v", top)
	}
	// Threshold filters.
	strict := RefineDuplicates(r, rep, 0.99)
	for _, p := range strict {
		if p.Similarity < 0.99 {
			t.Fatalf("threshold violated: %+v", p)
		}
	}
}

func TestRefineDuplicatesExactPair(t *testing.T) {
	r := build(t, []string{"A", "B"},
		[]string{"x", "y"},
		[]string{"x", "y"},
	)
	rep := FindDuplicatesCtx(context.Background(), r, 0.0, 4)
	pairs := RefineDuplicates(r, rep, 0.5)
	if len(pairs) != 1 || pairs[0].Similarity != 1 || pairs[0].Agree != 2 {
		t.Fatalf("exact pair: %+v", pairs)
	}
}
