package fd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"structmine/internal/relation"
)

func approxHas(fds []ApproxFD, f FD) (float64, bool) {
	for _, a := range fds {
		if a.FD == f {
			return a.Err, true
		}
	}
	return 0, false
}

func TestMineApproxExactSubsumesTANE(t *testing.T) {
	// With eps = 0, the approximate miner finds exactly the minimal
	// exact FDs (no LHS-size bound).
	r := fig4(t)
	exact, err := TANE(r)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := MineApprox(r, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(approx) != len(exact) {
		t.Fatalf("eps=0: %d approx vs %d exact\napprox: %v\nexact: %v", len(approx), len(exact), approx, exact)
	}
	for i, a := range approx {
		if a.FD != exact[i] || a.Err != 0 {
			t.Fatalf("mismatch at %d: %v vs %v", i, a, exact[i])
		}
	}
}

func TestMineApproxFigure5(t *testing.T) {
	// Figure 5: C→B became approximate (one tuple violates; g3 = 0.2).
	r := rel(t, []string{"A", "B", "C"},
		[]string{"a", "1", "p"},
		[]string{"a", "1", "x"},
		[]string{"w", "2", "x"},
		[]string{"y", "2", "x"},
		[]string{"z", "2", "x"},
	)
	cToB := FD{LHS: NewAttrSet(2), RHS: NewAttrSet(1)}

	strict, err := MineApprox(r, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := approxHas(strict, cToB); ok {
		t.Fatal("C→B should not satisfy eps=0.1 (g3=0.2)")
	}
	loose, err := MineApprox(r, 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := approxHas(loose, cToB)
	if !ok {
		t.Fatalf("C→B should satisfy eps=0.2; got %v", loose)
	}
	if math.Abs(g-0.2) > 1e-12 {
		t.Fatalf("g3(C→B) = %v, want 0.2", g)
	}
}

func TestMineApproxMinimality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, 2+rng.Intn(20), 2+rng.Intn(3), 2+rng.Intn(3))
		eps := []float64{0, 0.1, 0.3}[rng.Intn(3)]
		fds, err := MineApprox(r, eps, 0)
		if err != nil {
			return false
		}
		for _, a := range fds {
			// Satisfies the bound...
			if G3(r, a.FD) > eps+1e-12 {
				return false
			}
			if math.Abs(G3(r, a.FD)-a.Err) > 1e-12 {
				return false
			}
			// ...and no proper subset does.
			for _, b := range a.FD.LHS.Attrs() {
				if G3(r, FD{LHS: a.FD.LHS.Remove(b), RHS: a.FD.RHS}) <= eps {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Brute-force cross-check of completeness on tiny instances: every
// minimal approximate FD is reported.
func TestPropMineApproxComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, 2+rng.Intn(12), 2+rng.Intn(2), 2)
		eps := 0.25
		fds, err := MineApprox(r, eps, 0)
		if err != nil {
			return false
		}
		reported := map[FD]bool{}
		for _, a := range fds {
			reported[a.FD] = true
		}
		m := r.M()
		for a := 0; a < m; a++ {
			universe := FullSet(m).Remove(a)
			for x := AttrSet(0); x <= FullSet(m); x++ {
				if !x.SubsetOf(universe) {
					continue
				}
				if G3(r, FD{LHS: x, RHS: NewAttrSet(a)}) > eps {
					continue
				}
				minimal := true
				for _, b := range x.Attrs() {
					if G3(r, FD{LHS: x.Remove(b), RHS: NewAttrSet(a)}) <= eps {
						minimal = false
						break
					}
				}
				if minimal && !reported[FD{LHS: x, RHS: NewAttrSet(a)}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMineApproxLHSBound(t *testing.T) {
	r := fig4(t)
	fds, err := MineApprox(r, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range fds {
		if a.FD.LHS.Count() > 1 {
			t.Fatalf("LHS bound violated: %v", a)
		}
	}
}

func TestMineApproxEdgeCases(t *testing.T) {
	empty := relation.NewBuilder("e", []string{"A", "B"}).Relation()
	fds, err := MineApprox(empty, 0.1, 0)
	if err != nil || fds != nil {
		t.Fatalf("empty: %v %v", fds, err)
	}
	// Negative eps clamps to exact.
	r := fig4(t)
	neg, err := MineApprox(r, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range neg {
		if a.Err != 0 {
			t.Fatalf("negative eps admitted approximate FD %v", a)
		}
	}
}

func TestG3FromPartitionsMatchesDirect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, 2+rng.Intn(30), 3, 2+rng.Intn(3))
		x := NewAttrSet(0)
		a := 1
		px := indexPartition(r, 0)
		pxa := product(px, indexPartition(r, a), r.N(), nil)
		got := g3FromPartitions(px, pxa, r.N(), nil)
		want := G3(r, FD{LHS: x, RHS: NewAttrSet(a)})
		return math.Abs(got-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
