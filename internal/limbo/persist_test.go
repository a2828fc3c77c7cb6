package limbo

import (
	"context"
	"math/rand"
	"testing"

	"structmine/internal/it"
)

// unitObjs builds unit-weight objects over random small-domain rows —
// the shape horizontal partitioning inserts before it scales the leaves
// by 1/n.
func unitObjs(n, m, domain int, seed int64) []Obj {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]Obj, n)
	for i := range objs {
		row := make([]int32, m)
		for a := range row {
			row[a] = int32(a*domain + rng.Intn(domain))
		}
		objs[i] = Obj{ID: int32(i), W: 1, Cond: it.Uniform(row)}
	}
	return objs
}

func buildTree(ctx context.Context, cfg Config, objs []Obj) *Tree {
	t := NewTreeCtx(ctx, cfg)
	for _, o := range objs {
		t.Insert(o)
	}
	return t
}

// TestScaled checks mass scaling keeps the representation invariants
// and the normalized conditional unchanged.
func TestScaled(t *testing.T) {
	tree := buildTree(context.Background(), Config{B: 4, Threshold: 0.1}, unitObjs(200, 3, 4, 9))
	for _, d := range tree.Leaves() {
		s := Scaled(d, 1.0/200)
		if err := validDCF(s); err != nil {
			t.Fatalf("scaled DCF invalid: %v", err)
		}
		if s.N != d.N || s.FirstID != d.FirstID {
			t.Fatalf("scaling changed counts: %+v vs %+v", s, d)
		}
		if s.W != d.W/200 {
			t.Fatalf("W %v, want %v", s.W, d.W/200)
		}
		want := d.Cond()
		got := s.Cond()
		if len(got) != len(want) {
			t.Fatalf("support changed under scaling")
		}
		for i := range want {
			if got[i].Idx != want[i].Idx {
				t.Fatalf("coordinate %d moved", i)
			}
			if diff := got[i].P - want[i].P; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("conditional drifted at %d: %v vs %v", i, got[i].P, want[i].P)
			}
		}
	}
}
