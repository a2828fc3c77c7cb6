package fd

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"structmine/internal/relation"
)

func rel(t *testing.T, attrs []string, rows ...[]string) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder("t", attrs)
	for _, row := range rows {
		if err := b.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	return b.Relation()
}

// fig4 is the paper's Figure 4 relation, where C → B holds (every C value
// maps to one B value) but B → C does not.
func fig4(t *testing.T) *relation.Relation {
	return rel(t, []string{"A", "B", "C"},
		[]string{"a", "1", "p"},
		[]string{"a", "1", "r"},
		[]string{"w", "2", "x"},
		[]string{"y", "2", "x"},
		[]string{"z", "2", "x"},
	)
}

func TestAttrSetBasics(t *testing.T) {
	s := NewAttrSet(0, 3, 5)
	if s.Count() != 3 || !s.Has(3) || s.Has(1) {
		t.Fatalf("bad set %v", s.Attrs())
	}
	if got := s.Remove(3).Attrs(); !reflect.DeepEqual(got, []int{0, 5}) {
		t.Fatalf("remove: %v", got)
	}
	if !NewAttrSet(0).SubsetOf(s) || NewAttrSet(1).SubsetOf(s) {
		t.Fatal("subset checks wrong")
	}
	if got := s.Union(NewAttrSet(1)).Count(); got != 4 {
		t.Fatalf("union count %d", got)
	}
	if got := s.Minus(NewAttrSet(0, 5)).Attrs(); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("minus: %v", got)
	}
	if FullSet(3) != NewAttrSet(0, 1, 2) {
		t.Fatal("FullSet wrong")
	}
	if FullSet(0) != 0 {
		t.Fatal("FullSet(0) should be empty")
	}
	if got := s.Format([]string{"A", "B", "C", "D", "E", "F"}); got != "[A,D,F]" {
		t.Fatalf("format: %s", got)
	}
}

func TestHolds(t *testing.T) {
	r := fig4(t)
	cToB := FD{LHS: NewAttrSet(2), RHS: NewAttrSet(1)}
	bToC := FD{LHS: NewAttrSet(1), RHS: NewAttrSet(2)}
	aToB := FD{LHS: NewAttrSet(0), RHS: NewAttrSet(1)}
	if !Holds(r, cToB) {
		t.Error("C→B should hold in Figure 4")
	}
	if Holds(r, bToC) {
		t.Error("B→C should not hold (B=1 maps to p and r)")
	}
	if !Holds(r, aToB) {
		t.Error("A→B should hold")
	}
	// Multi-attribute RHS.
	if !Holds(r, FD{LHS: NewAttrSet(0, 2), RHS: NewAttrSet(1)}) {
		t.Error("AC→B should hold")
	}
}

// g3Of is G3Columns over a resident relation, which has no failing reads.
func g3Of(r *relation.Relation, f FD) float64 {
	g3, _ := G3Columns(relation.AsColumns(r), f)
	return g3
}

func TestG3(t *testing.T) {
	r := fig4(t)
	// C→B holds exactly.
	if g := g3Of(r, FD{LHS: NewAttrSet(2), RHS: NewAttrSet(1)}); g != 0 {
		t.Fatalf("g3 of valid FD = %v", g)
	}
	// B→C: group B=1 has {p, r} (drop 1), group B=2 all x (drop 0) → 1/5.
	if g := g3Of(r, FD{LHS: NewAttrSet(1), RHS: NewAttrSet(2)}); math.Abs(g-0.2) > 1e-12 {
		t.Fatalf("g3(B→C) = %v, want 0.2", g)
	}
	// Figure 5 variant: x replaces p in tuple 2, making C→B approximate.
	r5 := rel(t, []string{"A", "B", "C"},
		[]string{"a", "1", "p"},
		[]string{"a", "1", "x"},
		[]string{"w", "2", "x"},
		[]string{"y", "2", "x"},
		[]string{"z", "2", "x"},
	)
	if Holds(r5, FD{LHS: NewAttrSet(2), RHS: NewAttrSet(1)}) {
		t.Fatal("C→B should be invalidated in Figure 5")
	}
	if g := g3Of(r5, FD{LHS: NewAttrSet(2), RHS: NewAttrSet(1)}); math.Abs(g-0.2) > 1e-12 {
		t.Fatalf("g3(C→B) on Figure 5 = %v, want 0.2 (one tuple removed)", g)
	}
}

func TestClosure(t *testing.T) {
	// A→B, B→C: A+ = {A,B,C}.
	fds := []FD{
		{LHS: NewAttrSet(0), RHS: NewAttrSet(1)},
		{LHS: NewAttrSet(1), RHS: NewAttrSet(2)},
	}
	if got := Closure(NewAttrSet(0), fds); got != NewAttrSet(0, 1, 2) {
		t.Fatalf("closure %v", got.Attrs())
	}
	if got := Closure(NewAttrSet(2), fds); got != NewAttrSet(2) {
		t.Fatalf("closure of C: %v", got.Attrs())
	}
	if !Implies(fds, FD{LHS: NewAttrSet(0), RHS: NewAttrSet(2)}) {
		t.Fatal("A→C should be implied")
	}
	if Implies(fds, FD{LHS: NewAttrSet(1), RHS: NewAttrSet(0)}) {
		t.Fatal("B→A should not be implied")
	}
}

func TestMinCover(t *testing.T) {
	// {A→B, B→C, A→C, AB→C}: cover is {A→B, B→C}.
	fds := []FD{
		{LHS: NewAttrSet(0), RHS: NewAttrSet(1)},
		{LHS: NewAttrSet(1), RHS: NewAttrSet(2)},
		{LHS: NewAttrSet(0), RHS: NewAttrSet(2)},
		{LHS: NewAttrSet(0, 1), RHS: NewAttrSet(2)},
	}
	cover := MinCover(fds)
	if len(cover) != 2 {
		t.Fatalf("cover size %d: %v", len(cover), cover)
	}
	if !Equivalent(fds, cover) {
		t.Fatal("cover not equivalent to input")
	}
}

func TestMinCoverSplitsRHSAndDropsTrivial(t *testing.T) {
	fds := []FD{{LHS: NewAttrSet(0), RHS: NewAttrSet(0, 1)}}
	cover := MinCover(fds)
	if len(cover) != 1 || cover[0].RHS != NewAttrSet(1) {
		t.Fatalf("cover %v", cover)
	}
}

func TestMinCoverExtraneousLHS(t *testing.T) {
	// A→B plus AB→C means AC... rather: {A→B, AB→C} reduces AB→C to A→C?
	// B ∈ closure(A), so AB→C has B extraneous: A→C.
	fds := []FD{
		{LHS: NewAttrSet(0), RHS: NewAttrSet(1)},
		{LHS: NewAttrSet(0, 1), RHS: NewAttrSet(2)},
	}
	cover := MinCover(fds)
	want := []FD{
		{LHS: NewAttrSet(0), RHS: NewAttrSet(1)},
		{LHS: NewAttrSet(0), RHS: NewAttrSet(2)},
	}
	SortFDs(want)
	if !reflect.DeepEqual(cover, want) {
		t.Fatalf("cover %v, want %v", cover, want)
	}
}

func TestFDEPFig4(t *testing.T) {
	fds, err := FDEP(fig4(t))
	if err != nil {
		t.Fatal(err)
	}
	has := func(want FD) bool {
		for _, f := range fds {
			if f == want {
				return true
			}
		}
		return false
	}
	if !has(FD{LHS: NewAttrSet(2), RHS: NewAttrSet(1)}) {
		t.Errorf("FDEP missed C→B; got %v", fds)
	}
	if !has(FD{LHS: NewAttrSet(0), RHS: NewAttrSet(1)}) {
		t.Errorf("FDEP missed A→B; got %v", fds)
	}
	// Every reported FD must hold and be minimal.
	r := fig4(t)
	for _, f := range fds {
		if !Holds(r, f) {
			t.Errorf("FDEP reported invalid FD %v", f)
		}
		for _, a := range f.LHS.Attrs() {
			if Holds(r, FD{LHS: f.LHS.Remove(a), RHS: f.RHS}) {
				t.Errorf("FDEP FD %v not minimal", f)
			}
		}
	}
}

func TestConstantAttributeGivesEmptyLHS(t *testing.T) {
	r := rel(t, []string{"A", "B"},
		[]string{"x", "c"},
		[]string{"y", "c"},
		[]string{"z", "c"},
	)
	for name, mine := range map[string]func(*relation.Relation) ([]FD, error){
		"FDEP": FDEP, "TANE": TANE, "Brute": BruteForce,
	} {
		fds, err := mine(r)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, f := range fds {
			if f.LHS.Empty() && f.RHS == NewAttrSet(1) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s missed ∅→B for constant attribute: %v", name, fds)
		}
	}
}

func TestPairDifferingOnlyOnOneAttr(t *testing.T) {
	// Two tuples equal except on B: nothing (nontrivial) determines B.
	r := rel(t, []string{"A", "B"},
		[]string{"x", "1"},
		[]string{"x", "2"},
	)
	for name, mine := range map[string]func(*relation.Relation) ([]FD, error){
		"FDEP": FDEP, "TANE": TANE, "Brute": BruteForce,
	} {
		fds, err := mine(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fds {
			if f.RHS == NewAttrSet(1) {
				t.Errorf("%s claims %v determines B", name, f)
			}
		}
		// B→A must be found (distinct B values, single A).
		found := false
		for _, f := range fds {
			if f.RHS == NewAttrSet(0) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s missed a determinant for A: %v", name, fds)
		}
	}
}

func TestEmptyAndSingleRow(t *testing.T) {
	empty := relation.NewBuilder("e", []string{"A", "B"}).Relation()
	for _, mine := range []func(*relation.Relation) ([]FD, error){FDEP, TANE, BruteForce} {
		fds, err := mine(empty)
		if err != nil || len(fds) != 0 {
			t.Fatalf("empty relation: %v %v", fds, err)
		}
	}
	single := rel(t, []string{"A", "B"}, []string{"x", "y"})
	for _, mine := range []func(*relation.Relation) ([]FD, error){FDEP, TANE, BruteForce} {
		fds, err := mine(single)
		if err != nil {
			t.Fatal(err)
		}
		// Everything holds; minimal FDs are ∅→A and ∅→B.
		if len(fds) != 2 {
			t.Fatalf("single row FDs: %v", fds)
		}
		for _, f := range fds {
			if !f.LHS.Empty() {
				t.Fatalf("single row minimal FDs should have empty LHS: %v", fds)
			}
		}
	}
}

// randomRelation builds a small random instance for cross-validation.
func randomRelation(r *rand.Rand, n, m, domain int) *relation.Relation {
	attrs := make([]string, m)
	for i := range attrs {
		attrs[i] = "A" + strconv.Itoa(i)
	}
	b := relation.NewBuilder("rand", attrs)
	row := make([]string, m)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = strconv.Itoa(r.Intn(domain))
		}
		if err := b.Add(row); err != nil {
			panic(err)
		}
	}
	return b.Relation()
}

// The three miners must agree exactly on random instances.
func TestPropMinersAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, 2+rng.Intn(30), 2+rng.Intn(4), 2+rng.Intn(3))
		a, err1 := FDEP(r)
		b, err2 := TANE(r)
		c, err3 := BruteForce(r)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return reflect.DeepEqual(a, b) && reflect.DeepEqual(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// MinCover must preserve logical equivalence and never grow the set.
func TestPropMinCoverEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, 2+rng.Intn(25), 2+rng.Intn(4), 2+rng.Intn(3))
		fds, err := FDEP(r)
		if err != nil {
			return false
		}
		cover := MinCover(fds)
		return len(cover) <= len(fds) && Equivalent(fds, cover)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Every mined FD holds; every mined FD is minimal.
func TestPropMinedFDsValidAndMinimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, 2+rng.Intn(25), 2+rng.Intn(4), 2+rng.Intn(3))
		fds, err := TANE(r)
		if err != nil {
			return false
		}
		for _, fdep := range fds {
			if !Holds(r, fdep) {
				return false
			}
			for _, a := range fdep.LHS.Attrs() {
				if Holds(r, FD{LHS: fdep.LHS.Remove(a), RHS: fdep.RHS}) {
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

func TestDiscoverDispatch(t *testing.T) {
	r := fig4(t)
	fds, err := DiscoverCtx(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FDEP(r)
	if !reflect.DeepEqual(fds, want) {
		t.Fatal("Discover should use FDEP on small input")
	}
}

func TestTooManyAttributes(t *testing.T) {
	attrs := make([]string, 65)
	for i := range attrs {
		attrs[i] = strconv.Itoa(i)
	}
	r := relation.NewBuilder("big", attrs).Relation()
	if _, err := FDEP(r); err == nil {
		t.Error("FDEP should reject > 64 attributes")
	}
	if _, err := TANE(r); err == nil {
		t.Error("TANE should reject > 64 attributes")
	}
}

func TestMinimalTransversals(t *testing.T) {
	// Sets {0,1}, {1,2}: minimal transversals {1}, {0,2}.
	got := minimalTransversals([]AttrSet{NewAttrSet(0, 1), NewAttrSet(1, 2)})
	want := map[AttrSet]bool{NewAttrSet(1): true, NewAttrSet(0, 2): true}
	if len(got) != 2 || !want[got[0]] || !want[got[1]] {
		t.Fatalf("transversals %v", got)
	}
}

func TestMaximalSets(t *testing.T) {
	got := maximalSets([]AttrSet{NewAttrSet(0), NewAttrSet(0, 1), NewAttrSet(2), NewAttrSet(0, 1)})
	if len(got) != 2 {
		t.Fatalf("maximal %v", got)
	}
}

func TestFDFormatting(t *testing.T) {
	f := FD{LHS: NewAttrSet(0), RHS: NewAttrSet(1, 2)}
	if got := f.String(); got != "[#0]->[#1,#2]" {
		t.Fatalf("String: %q", got)
	}
	if got := f.Format([]string{"A", "B", "C"}); got != "[A]->[B,C]" {
		t.Fatalf("Format: %q", got)
	}
	if got := f.Attrs(); got != NewAttrSet(0, 1, 2) {
		t.Fatalf("Attrs: %v", got.Attrs())
	}
	all := FormatAll([]FD{f, {LHS: NewAttrSet(2), RHS: NewAttrSet(0)}}, []string{"A", "B", "C"})
	if all != "[A]->[B,C]\n[C]->[A]\n" {
		t.Fatalf("FormatAll: %q", all)
	}
}
