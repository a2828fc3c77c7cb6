package fd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
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
	exact, err := mineTANE(r)
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

// g3 of X → A counted from Π_X and A's class index (g3Refine) is the
// direct count over the rows, to the bit, on relations of up to 200
// tuples whose Π_X classes run from pairs to dozens of tuples and whose
// A copies X on some rows, is unique to the tuple on others and is
// drawn from 2–12 values on the rest. Classes of ≥ 4 tuples take each
// outcome of g3Removed's pre-scan — kept whole, all Π_A singletons, a
// tuple leaving the first one's A-class — and the test asserts each did.
func TestG3FromPartitionsMatchesDirect(t *testing.T) {
	seen := map[string]int{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, dx, da := 2+rng.Intn(200), 1+rng.Intn(12), 2+rng.Intn(11)
		copies, uniques := rng.Intn(4), rng.Intn(4) // out of 4 rows, drawn per row
		b := relation.NewBuilder("g3", []string{"X", "A"})
		for i := 0; i < n; i++ {
			x := rng.Intn(dx)
			a := "a" + strconv.Itoa(rng.Intn(da))
			switch p := rng.Intn(4); {
			case p < copies:
				a = "x" + strconv.Itoa(x)
			case p < copies+uniques:
				a = "u" + strconv.Itoa(i)
			}
			b.MustAdd(strconv.Itoa(x), a)
		}
		r := b.Relation()
		px := indexPartition(r, 0)
		ia := classIndex(exec.NewArena(), indexPartition(r, 1), r.N())
		for ci := 0; ci < px.numClasses(); ci++ {
			c := px.class(ci)
			k := 1
			for k < len(c) && ia[c[k]] == ia[c[0]] {
				k++
			}
			switch {
			case len(c) < 4:
			case k < len(c):
				seen["split"]++
			case ia[c[0]] >= 0:
				seen["whole"]++
			default:
				seen["all singletons"]++
			}
		}
		got := g3Refine(px, ia, &prodScratch{ar: exec.NewArena()})
		want := g3Of(r, FD{LHS: NewAttrSet(0), RHS: NewAttrSet(1)})
		if got != want {
			t.Logf("seed %d: g3Refine = %v, direct count %v", seed, got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"whole", "all singletons", "split"} {
		if seen[k] == 0 {
			t.Errorf("no class of ≥ 4 tuples took the %q outcome (seen %v)", k, seen)
		}
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
			s := setsOf(in.r) // one kernel serves both miners and TANE
			fds, err := MineApproxColumns(context.Background(), s, 0.05, maxLHS)
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

			zero, err := MineApproxColumns(context.Background(), s, 0, maxLHS)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := mineTANE(in.r)
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
			ctx := exec.WithWorkers(context.Background(), budget)
			got, err := MineApproxColumns(ctx, NewSets(ctx, c), 0.05, 3)
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

// approxBrute is the exact-set oracle of the approximate miner: for
// every left-hand side X (ascending) and right-hand side a ∉ X with
// |X| ≤ maxLHS (0 = no bound), X → a is listed with Err = g3 when
// g3(X → a) ≤ ε and no proper subset of X satisfies the bound — every
// subset checked, not only the immediate ones. A negative ε counts as
// 0, as the miner documents.
func approxBrute(r *relation.Relation, eps float64, maxLHS int, g3 func(FD) float64) []ApproxFD {
	m, n := r.M(), r.N()
	if n == 0 || m == 0 {
		return nil
	}
	eps = max(eps, 0)
	if maxLHS <= 0 {
		maxLHS = m
	}
	holds := func(f FD) bool { return g3(f) <= eps }
	var out []ApproxFD
	for x := AttrSet(0); x < AttrSet(1)<<m; x++ {
		if x.Count() > maxLHS {
			continue
		}
	rhs:
		for a := 0; a < m; a++ {
			f := FD{LHS: x, RHS: NewAttrSet(a)}
			if x.Has(a) || !holds(f) {
				continue
			}
			for sub := (x - 1) & x; x != 0; sub = (sub - 1) & x {
				if holds(FD{LHS: sub, RHS: f.RHS}) {
					continue rhs
				}
				if sub == 0 {
					break
				}
			}
			out = append(out, ApproxFD{FD: f, Err: g3(f)})
		}
	}
	return out
}

// g3Table is g3Of for every X → a with |X| ≤ maxLHS, counted as g3Of
// does — group the rows by their X values, keep each group's most
// frequent a value — with one grouping of the rows per X shared by all
// right-hand sides, so the oracle stays affordable at 3 000 × 13.
func g3Table(r *relation.Relation, maxLHS int) map[FD]float64 {
	m, n := r.M(), r.N()
	table := map[FD]float64{}
	gid := make([]int32, n)
	cnt := map[[2]int32]int{}
	for x := AttrSet(0); x < AttrSet(1)<<m; x++ {
		if x.Count() > maxLHS {
			continue
		}
		ids := map[string]int32{}
		var key []byte
		for t := range gid {
			key = key[:0]
			for _, a := range x.Attrs() {
				key = appendValueKey(key, r.Row(t)[a:a+1])
			}
			id, ok := ids[string(key)]
			if !ok {
				id = int32(len(ids))
				ids[string(key)] = id
			}
			gid[t] = id
		}
		for a := 0; a < m; a++ {
			if x.Has(a) {
				continue
			}
			clear(cnt)
			best := make([]int, len(ids))
			for t, g := range gid {
				k := [2]int32{g, r.Row(t)[a]}
				cnt[k]++
				best[g] = max(best[g], cnt[k])
			}
			keep := 0
			for _, b := range best {
				keep += b
			}
			table[FD{LHS: x, RHS: NewAttrSet(a)}] = 1 - float64(keep)/float64(n)
		}
	}
	return table
}

// sameApprox reports the first difference between two mined lists,
// comparing Err to the bit; "" when they are equal.
func sameApprox(got, want []ApproxFD) string {
	for i := 0; i < max(len(got), len(want)); i++ {
		switch {
		case i >= len(got):
			return fmt.Sprintf("missing %v (Err %v)", want[i].FD, want[i].Err)
		case i >= len(want):
			return fmt.Sprintf("extra %v (Err %v)", got[i].FD, got[i].Err)
		case got[i].FD != want[i].FD || math.Float64bits(got[i].Err) != math.Float64bits(want[i].Err):
			return fmt.Sprintf("at %d: got %v (Err %v), want %v (Err %v)", i, got[i].FD, got[i].Err, want[i].FD, want[i].Err)
		}
	}
	return ""
}

// The miner reports exactly the minimal (X, a) with g3 ≤ ε, with their
// g3 to the bit, whatever the ε budget cut off early and the e(X) bound
// skipped. Besides round values, ε is set to k/n for the smallest
// removed-tuple counts k that occur, so candidates sit on the budget's
// edge: a limit one too high reports one with g3 > ε, one too low
// misses one with g3 = ε.
func TestMineApproxMatchesBruteForce(t *testing.T) {
	for _, in := range approxInputs() {
		t.Run(in.name, func(t *testing.T) {
			n := in.r.N()
			table := g3Table(in.r, 3)
			g3 := func(f FD) float64 { return table[f] }
			counts := map[int]bool{}
			for _, e := range table {
				if k := int(math.Round(e * float64(n))); k > 0 {
					counts[k] = true
				}
			}
			var ks []int
			for k := range counts {
				ks = append(ks, k)
			}
			sort.Ints(ks)
			epss := []float64{0, 0.01, 0.05, 0.2}
			for _, k := range ks[:min(3, len(ks))] {
				epss = append(epss, float64(k)/float64(n))
			}
			s := setsOf(in.r)
			for _, eps := range epss {
				for _, maxLHS := range []int{1, 3} {
					got, err := MineApproxColumns(context.Background(), s, eps, maxLHS)
					if err != nil {
						t.Fatal(err)
					}
					if d := sameApprox(got, approxBrute(in.r, eps, maxLHS, g3)); d != "" {
						t.Fatalf("eps %v, max LHS %d: %s", eps, maxLHS, d)
					}
				}
			}
		})
	}
}

// Both level-wise miners read their context at every level boundary: a
// cancelled one returns its error, not a partial or empty result.
func TestMinersReturnCancellation(t *testing.T) {
	c := relation.AsColumns(dblp(3000, 1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if fds, err := MineApproxColumns(ctx, NewSets(ctx, c), 0.05, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("MineApproxColumns: %d FDs, err %v; want context.Canceled", len(fds), err)
	}
	if fds, err := TANEColumnsCtx(ctx, NewSets(ctx, c)); !errors.Is(err, context.Canceled) {
		t.Errorf("TANEColumnsCtx: %d FDs, err %v; want context.Canceled", len(fds), err)
	}
}
