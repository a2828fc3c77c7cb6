package fd

import (
	"context"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"structmine/internal/relation"
)

// crossProductRelation builds the classic MVD example: employees with
// independent sets of skills and languages — Emp →→ Skill holds, and no
// FD from Emp does.
func crossProductRelation(t *testing.T) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder("emp-skills", []string{"Emp", "Skill", "Lang"})
	for _, row := range [][3]string{
		{"pat", "sql", "en"}, {"pat", "sql", "fr"},
		{"pat", "go", "en"}, {"pat", "go", "fr"},
		{"sal", "ml", "de"}, {"sal", "ml", "en"},
	} {
		b.MustAdd(row[0], row[1], row[2])
	}
	return b.Relation()
}

func mvdHolds(t testing.TB, r *relation.Relation, v MVD) bool {
	t.Helper()
	ok, err := setsOf(r).MVDHolds(v)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestMVDHoldsCrossProduct(t *testing.T) {
	r := crossProductRelation(t)
	emp := NewAttrSet(0)
	skill := NewAttrSet(1)
	if !mvdHolds(t, r, MVD{LHS: emp, RHS: skill}) {
		t.Fatal("Emp →→ Skill should hold")
	}
	// The corresponding FD does not.
	if Holds(r, FD{LHS: emp, RHS: skill}) {
		t.Fatal("Emp → Skill should not hold (pat has two skills)")
	}
}

func TestMVDViolated(t *testing.T) {
	b := relation.NewBuilder("broken", []string{"Emp", "Skill", "Lang"})
	b.MustAdd("pat", "sql", "en")
	b.MustAdd("pat", "go", "fr") // missing (sql,fr) and (go,en)
	r := b.Relation()
	if mvdHolds(t, r, MVD{LHS: NewAttrSet(0), RHS: NewAttrSet(1)}) {
		t.Fatal("non-cross-product group should violate the MVD")
	}
}

func TestMVDTrivial(t *testing.T) {
	r := crossProductRelation(t)
	// Y empty after removing X, or Z empty: trivially true.
	if !mvdHolds(t, r, MVD{LHS: NewAttrSet(0), RHS: NewAttrSet(0)}) {
		t.Fatal("trivial MVD (Y ⊆ X) should hold")
	}
	if !mvdHolds(t, r, MVD{LHS: NewAttrSet(0), RHS: NewAttrSet(1, 2)}) {
		t.Fatal("trivial MVD (Z empty) should hold")
	}
}

func TestMineMVDsFindsSkillLanguage(t *testing.T) {
	r := crossProductRelation(t)
	mvds, err := MineMVDsCtx(context.Background(), setsOf(r), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range mvds {
		if v.LHS == NewAttrSet(0) && (v.RHS == NewAttrSet(1) || v.RHS == NewAttrSet(2)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("Emp →→ Skill not mined: %v", mvds)
	}
}

func TestMineMVDsSkipFDImplied(t *testing.T) {
	// B is functionally determined by A: A →→ B is implied and boring.
	b := relation.NewBuilder("fdimp", []string{"A", "B", "C"})
	b.MustAdd("1", "x", "p")
	b.MustAdd("1", "x", "q")
	b.MustAdd("2", "y", "p")
	b.MustAdd("2", "y", "r")
	r := b.Relation()
	withFD, err := MineMVDsCtx(context.Background(), setsOf(r), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	without, err := MineMVDsCtx(context.Background(), setsOf(r), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	hasAB := func(mvds []MVD) bool {
		for _, v := range mvds {
			if v.LHS == NewAttrSet(0) && v.RHS == NewAttrSet(1) {
				return true
			}
		}
		return false
	}
	if !hasAB(withFD) {
		t.Fatalf("A →→ B should be found when FD-implied MVDs are kept: %v", withFD)
	}
	if hasAB(without) {
		t.Fatalf("A →→ B should be suppressed with skipFDImplied: %v", without)
	}
}

func TestMineMVDsEdgeCases(t *testing.T) {
	empty := relation.NewBuilder("e", []string{"A", "B", "C"}).Relation()
	if got, err := MineMVDsCtx(context.Background(), setsOf(empty), 0, false); err != nil || got != nil {
		t.Fatalf("empty: %v %v", got, err)
	}
	two := relation.NewBuilder("two", []string{"A", "B"})
	two.MustAdd("x", "y")
	if got, err := MineMVDsCtx(context.Background(), setsOf(two.Relation()), 0, false); err != nil || got != nil {
		t.Fatalf("m<3: %v %v", got, err)
	}
	wide := make([]string, 17)
	for i := range wide {
		wide[i] = strconv.Itoa(i)
	}
	if _, err := MineMVDsCtx(context.Background(), setsOf(relation.NewBuilder("wide", wide).Relation()), 0, false); err == nil {
		t.Fatal("17 attributes should be rejected")
	}
}

func TestMVDFormat(t *testing.T) {
	v := MVD{LHS: NewAttrSet(0), RHS: NewAttrSet(1)}
	if got := v.Format([]string{"A", "B"}); got != "[A]->->[B]" {
		t.Fatalf("format %q", got)
	}
}

// Property: every mined MVD holds, and splitting the relation on it is
// consistent with the cross-product semantics (validated by MVDHolds
// itself on random instances). Also: if X→Y holds then X→→Y holds.
func TestPropFDImpliesMVD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 3 + rng.Intn(2)
		attrs := make([]string, m)
		for i := range attrs {
			attrs[i] = "A" + strconv.Itoa(i)
		}
		b := relation.NewBuilder("rand", attrs)
		n := 3 + rng.Intn(20)
		row := make([]string, m)
		for i := 0; i < n; i++ {
			for j := range row {
				row[j] = strconv.Itoa(rng.Intn(3))
			}
			if err := b.Add(row); err != nil {
				return false
			}
		}
		r := b.Relation()
		fds, err := FDEP(r)
		if err != nil {
			return false
		}
		for _, f := range fds {
			if !mvdHolds(t, r, MVD{LHS: f.LHS, RHS: f.RHS}) {
				return false
			}
		}
		mvds, err := MineMVDsCtx(context.Background(), setsOf(r), 0, false)
		if err != nil {
			return false
		}
		for _, v := range mvds {
			if !mvdHolds(t, r, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
