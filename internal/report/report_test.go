package report

import (
	"strings"
	"testing"

	"structmine/internal/datagen"
	"structmine/internal/relation"
)

func TestGenerateOnDB2Sample(t *testing.T) {
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Generate(relation.AsColumns(db.Joined), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 90 || rep.M != 19 {
		t.Fatalf("shape %dx%d", rep.N, rep.M)
	}
	if rep.TupleInfo <= 0 {
		t.Fatal("I(T;V) should be positive")
	}
	if len(rep.Attrs) != 19 {
		t.Fatalf("profiles %d", len(rep.Attrs))
	}
	for _, a := range rep.Attrs {
		if a.Entropy < 0 || a.Entropy > a.MaxEntropy+1e-9 {
			t.Fatalf("attribute %s entropy %v outside [0, %v]", a.Name, a.Entropy, a.MaxEntropy)
		}
		if a.RAD < 0 || a.RAD > 1 || a.RTR < 0 || a.RTR > 1 {
			t.Fatalf("attribute %s measures out of range: %+v", a.Name, a)
		}
	}
	if len(rep.DuplicateValueGroups) == 0 {
		t.Fatal("joined relation must expose duplicate value groups")
	}
	if len(rep.RankedFDs) == 0 {
		t.Fatal("expected ranked dependencies")
	}
	for i := 1; i < len(rep.RankedFDs); i++ {
		if rep.RankedFDs[i].Rank < rep.RankedFDs[i-1].Rank-1e-12 {
			t.Fatal("ranked FDs not ascending")
		}
	}
}

func TestRenderSections(t *testing.T) {
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Generate(relation.AsColumns(db.Joined), Options{MaxGroups: 2, MaxFDs: 3})
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Render(Options{MaxGroups: 2, MaxFDs: 3})
	for _, section := range []string{
		"STRUCTURE REPORT", "ATTRIBUTE PROFILES", "CORRELATED VALUE GROUPS",
		"ATTRIBUTE GROUPING", "RANKED DEPENDENCIES",
	} {
		if !strings.Contains(text, section) {
			t.Errorf("missing section %q", section)
		}
	}
	if !strings.Contains(text, "EmpNo") {
		t.Error("attribute names missing from report")
	}
	// Truncation markers appear when limits are small.
	if len(rep.RankedFDs) > 3 && !strings.Contains(text, "more") {
		t.Error("expected truncation marker")
	}
}

func TestGenerateSkipFDs(t *testing.T) {
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Generate(relation.AsColumns(db.Joined), Options{SkipFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RankedFDs) != 0 {
		t.Fatal("SkipFDs should suppress mining")
	}
	if strings.Contains(rep.Render(Options{}), "RANKED DEPENDENCIES") {
		t.Fatal("render should omit empty FD section")
	}
}

func TestGenerateWithDuplicates(t *testing.T) {
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	inj := datagen.InjectExactDuplicates(db.Joined, 3, 9)
	rep, err := Generate(relation.AsColumns(inj.Dirty), Options{PhiT: 1e-9, SkipFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DuplicateTupleGroups) == 0 {
		t.Fatal("injected duplicates not reported")
	}
	text := rep.Render(Options{})
	if !strings.Contains(text, "DUPLICATE TUPLE CANDIDATES") {
		t.Fatal("missing duplicate section")
	}
}

func TestGenerateEmptyRelation(t *testing.T) {
	r := relation.NewBuilder("empty", []string{"A"}).Relation()
	rep, err := Generate(relation.AsColumns(r), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 0 || len(rep.Attrs) != 0 {
		t.Fatalf("empty relation report: %+v", rep)
	}
	if out := rep.Render(Options{}); !strings.Contains(out, "0 tuples") {
		t.Fatalf("render: %s", out)
	}
}

func TestReportCandidateKeys(t *testing.T) {
	b := relation.NewBuilder("keyed", []string{"Id", "Name", "City"})
	b.MustAdd("1", "Pat", "Boston")
	b.MustAdd("2", "Sal", "Boston")
	b.MustAdd("3", "Pat", "Paris")
	rep, err := Generate(relation.AsColumns(b.Relation()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CandidateKeys) == 0 || rep.CandidateKeys[0] != "[Id]" {
		t.Fatalf("candidate keys %v, want [Id] first", rep.CandidateKeys)
	}
	if !strings.Contains(rep.Render(Options{}), "CANDIDATE KEYS") {
		t.Fatal("render missing key section")
	}
}
