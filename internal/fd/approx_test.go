package fd

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"structmine/internal/exec"
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
	approx, err := MineApproxCtx(context.Background(), r, 0, 0)
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

	strict, err := MineApproxCtx(context.Background(), r, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := approxHas(strict, cToB); ok {
		t.Fatal("C→B should not satisfy eps=0.1 (g3=0.2)")
	}
	loose, err := MineApproxCtx(context.Background(), r, 0.2, 0)
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
		fds, err := MineApproxCtx(context.Background(), r, eps, 0)
		if err != nil {
			return false
		}
		for _, a := range fds {
			// Satisfies the bound...
			if g3Of(r, a.FD) > eps+1e-12 {
				return false
			}
			if math.Abs(g3Of(r, a.FD)-a.Err) > 1e-12 {
				return false
			}
			// ...and no proper subset does.
			for _, b := range a.FD.LHS.Attrs() {
				if g3Of(r, FD{LHS: a.FD.LHS.Remove(b), RHS: a.FD.RHS}) <= eps {
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
		fds, err := MineApproxCtx(context.Background(), r, eps, 0)
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
				if g3Of(r, FD{LHS: x, RHS: NewAttrSet(a)}) > eps {
					continue
				}
				minimal := true
				for _, b := range x.Attrs() {
					if g3Of(r, FD{LHS: x.Remove(b), RHS: NewAttrSet(a)}) <= eps {
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
	fds, err := MineApproxCtx(context.Background(), r, 0, 1)
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
	fds, err := MineApproxCtx(context.Background(), empty, 0.1, 0)
	if err != nil || fds != nil {
		t.Fatalf("empty: %v %v", fds, err)
	}
	// Negative eps clamps to exact.
	r := fig4(t)
	neg, err := MineApproxCtx(context.Background(), r, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range neg {
		if a.Err != 0 {
			t.Fatalf("negative eps admitted approximate FD %v", a)
		}
	}
}

// The product-free g3 kernel against the direct count, on single
// attributes of random relations.
func TestG3FromPartitionsMatchesDirect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, 2+rng.Intn(30), 3, 2+rng.Intn(3))
		x := NewAttrSet(0)
		a := 1
		px := indexPartition(r, 0)
		ia := classIndex(exec.NewArena(), indexPartition(r, a), r.N())
		got := g3Refine(px, ia, &prodScratch{})
		want := g3Of(r, FD{LHS: x, RHS: NewAttrSet(a)})
		return math.Abs(got-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// approxInputs are the instances the approximate miner is pinned on
// beyond random ones: DBLP-shaped relations and the sharing corner
// cases of the exact miner.
func approxInputs() []cornerCase {
	in := cornerCases()
	for seed := int64(1); seed <= 3; seed++ {
		in = append(in, cornerCase{fmt.Sprintf("dblp/seed=%d", seed), dblp(3000, seed)})
	}
	return in
}

// Every reported error is the direct count's g3 to the last bit (the
// miner never forms Π_{X∪A}; g3Of groups rows by value), and at
// ε = 0 the miner reports every minimal exact FD TANE finds within the
// left-hand-side bound, with error exactly 0.
func TestMineApproxErrMatchesDirectCount(t *testing.T) {
	const maxLHS = 3
	for _, in := range approxInputs() {
		t.Run(in.name, func(t *testing.T) {
			c := relation.AsColumns(in.r)
			fds, err := MineApproxColumns(context.Background(), c, 0.05, maxLHS)
			if err != nil {
				t.Fatal(err)
			}
			if len(fds) == 0 {
				t.Fatal("no approximate FDs mined")
			}
			for _, f := range fds {
				if want := g3Of(in.r, f.FD); f.Err != want {
					t.Fatalf("%v: Err = %v, direct count %v", f.FD, f.Err, want)
				}
			}

			zero, err := MineApproxColumns(context.Background(), c, 0, maxLHS)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := TANE(in.r)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range exact {
				if f.LHS.Count() > maxLHS {
					continue
				}
				if g, ok := approxHas(zero, f); !ok || g != 0 {
					t.Fatalf("eps=0 misses TANE's %v (found %v, Err %v)", f, ok, g)
				}
			}
		})
	}
}

// The level fan-out writes per-candidate slots and records finds
// serially afterwards, so the result is the same at every budget.
func TestMineApproxBudgetSweep(t *testing.T) {
	defer forceParallel()()
	for _, in := range append(cornerCases(), cornerCase{"dblp", dblp(3000, 1)}) {
		c := relation.AsColumns(in.r)
		var want []ApproxFD
		for _, budget := range []int{1, 2, 4, 8} {
			got, err := MineApproxColumns(exec.WithWorkers(context.Background(), budget), c, 0.05, 3)
			if err != nil {
				t.Fatalf("%s budget %d: %v", in.name, budget, err)
			}
			if budget == 1 {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s budget %d: result diverged from budget 1", in.name, budget)
			}
		}
	}
}
