package task

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"structmine/internal/datagen"
	"structmine/internal/it"
	"structmine/internal/relation"
)

func runReportOn(t *testing.T, r *relation.Relation, p Params) *ReportResult {
	t.Helper()
	res, err := Run(context.Background(), r, "report", p)
	if err != nil {
		t.Fatal(err)
	}
	return res.(*ReportResult)
}

func cleanDB2(t *testing.T) *relation.Relation {
	t.Helper()
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	return db.Joined
}

func TestReportOnDB2Sample(t *testing.T) {
	rep := runReportOn(t, cleanDB2(t), Params{})
	if rep.Tuples != 90 || rep.Attributes != 19 {
		t.Fatalf("shape %dx%d", rep.Tuples, rep.Attributes)
	}
	if rep.TupleInfoBits <= 0 {
		t.Fatal("I(T;V) should be positive")
	}
	if len(rep.Attrs) != 19 {
		t.Fatalf("profiles %d", len(rep.Attrs))
	}
	for _, a := range rep.Attrs {
		if maxH := math.Log2(float64(a.Distinct)); a.EntropyBits < 0 || a.EntropyBits > maxH+1e-9 {
			t.Fatalf("attribute %s entropy %v outside [0, %v]", a.Name, a.EntropyBits, maxH)
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

func TestReportRenderSections(t *testing.T) {
	rep := runReportOn(t, cleanDB2(t), Params{})
	for _, section := range []string{
		"STRUCTURE REPORT", "ATTRIBUTE PROFILES", "CORRELATED VALUE GROUPS",
		"ATTRIBUTE GROUPING", "RANKED DEPENDENCIES",
	} {
		if !strings.Contains(rep.Text, section) {
			t.Errorf("missing section %q", section)
		}
	}
	if !strings.Contains(rep.Text, "EmpNo") {
		t.Error("attribute names missing from report")
	}
	// The text truncates long lists; the structured result keeps them.
	if len(rep.RankedFDs) <= reportMaxFDs {
		t.Fatalf("only %d ranked FDs: the truncation below is not exercised", len(rep.RankedFDs))
	}
	if more := fmt.Sprintf("  ... %d more\n", len(rep.RankedFDs)-reportMaxFDs); !strings.Contains(rep.Text, more) {
		t.Errorf("expected truncation marker %q", more)
	}
}

// TestReportOmitsEmptyFDSection: on an instance where no dependency
// holds, the text leaves the ranked-dependency section out.
func TestReportOmitsEmptyFDSection(t *testing.T) {
	b := relation.NewBuilder("free", []string{"A", "B"})
	b.MustAdd("a", "x")
	b.MustAdd("a", "y")
	b.MustAdd("b", "x")
	b.MustAdd("b", "y")
	rep := runReportOn(t, b.Relation(), Params{})
	if len(rep.RankedFDs) != 0 {
		t.Fatalf("no FD holds, got %+v", rep.RankedFDs)
	}
	if strings.Contains(rep.Text, "RANKED DEPENDENCIES") {
		t.Fatal("render should omit empty FD section")
	}
}

func TestReportWithDuplicates(t *testing.T) {
	inj := datagen.InjectExactDuplicates(cleanDB2(t), 3, 9)
	rep := runReportOn(t, inj.Dirty, Params{PhiT: F(1e-9)})
	if len(rep.DuplicateTupleGroups) == 0 {
		t.Fatal("injected duplicates not reported")
	}
	if !strings.Contains(rep.Text, "DUPLICATE TUPLE CANDIDATES") {
		t.Fatal("missing duplicate section")
	}
}

func TestReportEmptyRelation(t *testing.T) {
	r := relation.NewBuilder("empty", []string{"A"}).Relation()
	rep := runReportOn(t, r, Params{})
	if rep.Tuples != 0 || len(rep.Attrs) != 0 {
		t.Fatalf("empty relation report: %+v", rep)
	}
	if !strings.Contains(rep.Text, "0 tuples") {
		t.Fatalf("render: %s", rep.Text)
	}
}

func TestReportCandidateKeys(t *testing.T) {
	b := relation.NewBuilder("keyed", []string{"Id", "Name", "City"})
	b.MustAdd("1", "Pat", "Boston")
	b.MustAdd("2", "Sal", "Boston")
	b.MustAdd("3", "Pat", "Paris")
	rep := runReportOn(t, b.Relation(), Params{})
	if len(rep.CandidateKeys) == 0 || rep.CandidateKeys[0] != "[Id]" {
		t.Fatalf("candidate keys %v, want [Id] first", rep.CandidateKeys)
	}
	if !strings.Contains(rep.Text, "CANDIDATE KEYS") {
		t.Fatal("render missing key section")
	}
}

// TestReportComposesTasks pins the report to the runners it is composed
// of: on an instance below the double-clustering switch its profile is
// describe's (I(T;V) bit for bit), its duplicate tuple groups are
// dedup's at the same φT, its value groups are values' multi-value
// groups, and its ranked dependencies are rank-fds' rows.
func TestReportComposesTasks(t *testing.T) {
	r := db2(t)
	ctx := context.Background()
	run := func(name string, p Params) any {
		t.Helper()
		res, err := Run(ctx, r, name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res
	}
	rep := run("report", Params{}).(*ReportResult)

	desc := run("describe", Params{}).(*DescribeResult)
	if rep.TupleInfoBits != desc.TupleInfoBits {
		t.Errorf("I(T;V) %v, describe says %v", rep.TupleInfoBits, desc.TupleInfoBits)
	}
	for i, a := range rep.Attrs {
		d := desc.Attrs[i]
		if a.Name != d.Name || a.Distinct != d.Distinct || a.NullFraction != d.NullFraction || a.EntropyBits != d.EntropyBits {
			t.Errorf("profile %d: %+v, describe says %+v", i, a, d)
		}
	}

	dedup := run("dedup", Params{PhiT: F(0.3)}).(*DedupResult)
	if len(rep.DuplicateTupleGroups) == 0 || !reflect.DeepEqual(rep.DuplicateTupleGroups, dedup.Groups) {
		t.Errorf("duplicate groups %v, dedup says %v", rep.DuplicateTupleGroups, dedup.Groups)
	}

	var multi [][]string
	for _, g := range run("values", Params{}).(*ValuesResult).DuplicateGroups {
		if len(g.Values) >= 2 {
			multi = append(multi, g.Values)
		}
	}
	if !reflect.DeepEqual(rep.DuplicateValueGroups, multi) {
		t.Errorf("value groups %v, values says %v", rep.DuplicateValueGroups, multi)
	}

	ranked := run("rank-fds", Params{}).(*RankFDsResult).Ranked
	if len(rep.RankedFDs) != len(ranked) {
		t.Fatalf("%d ranked FDs, rank-fds has %d", len(rep.RankedFDs), len(ranked))
	}
	for i, rf := range rep.RankedFDs {
		want := ranked[i]
		if rf.Label != want.FD.Label || rf.Rank != want.Rank || rf.RAD != want.RAD || rf.RTR != want.RTR {
			t.Errorf("row %d: %+v, rank-fds says %+v", i, rf, want)
		}
	}
}

// parseFD reads a dependency label ("[A,B]->[C]") back into attribute
// indices.
func parseFD(t *testing.T, names []string, label string) (lhs, rhs []int) {
	t.Helper()
	sides := strings.Split(label, "->")
	if len(sides) != 2 {
		t.Fatalf("malformed FD label %q", label)
	}
	parse := func(side string) []int {
		var out []int
		inner := strings.TrimSuffix(strings.TrimPrefix(side, "["), "]")
		if inner == "" {
			return out
		}
		for _, name := range strings.Split(inner, ",") {
			a := -1
			for i, n := range names {
				if n == name {
					a = i
				}
			}
			if a < 0 {
				t.Fatalf("label %q names unknown attribute %q", label, name)
			}
			out = append(out, a)
		}
		return out
	}
	return parse(sides[0]), parse(sides[1])
}

// setEntropy is H(X) in bits for the attribute set attrs, from the
// multiplicities of c's projection on it: one ForEachRow pass, sharing
// no code with the partition-based miners.
func setEntropy(t *testing.T, c relation.Columns, attrs []int) float64 {
	t.Helper()
	counts, err := relation.ProjectionCountsColumns(c, attrs)
	if err != nil {
		t.Fatal(err)
	}
	return it.EntropyCounts(counts)
}

// TestFDsHaveZeroConditionalEntropy is the information-theoretic oracle
// for dependency mining: X → Y holds iff H(Y|X) = H(XY) − H(X) = 0.
// Every FD the mine-fds cover and the report's ranking emit is checked
// with setEntropy on a resident relation and on a 32-row-page colstore
// table.
func TestFDsHaveZeroConditionalEntropy(t *testing.T) {
	dblp := datagen.NewDBLP(datagen.DBLPConfig{Tuples: 2000, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28})
	for _, in := range []struct {
		name string
		r    *relation.Relation
	}{{"db2", cleanDB2(t)}, {"dblp", dblp}} {
		for _, src := range []struct {
			name string
			c    relation.Columns
		}{{"resident", relation.AsColumns(in.r)}, {"colstore", tableOf(t, in.r)}} {
			ctx := context.Background()
			names := src.c.AttrNames()
			check := func(origin, label string) {
				lhs, rhs := parseFD(t, names, label)
				if hc := setEntropy(t, src.c, slices.Concat(lhs, rhs)) - setEntropy(t, src.c, lhs); math.Abs(hc) > 1e-12 {
					t.Errorf("%s/%s: %s FD %s has H(Y|X) = %g", in.name, src.name, origin, label, hc)
				}
			}
			fds, err := RunColumns(ctx, src.c, "mine-fds", Params{})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := RunColumns(ctx, src.c, "report", Params{})
			if err != nil {
				t.Fatal(err)
			}
			cover, ranked := fds.(*FDsResult).Cover, rep.(*ReportResult).RankedFDs
			if len(cover) == 0 || len(ranked) == 0 {
				t.Fatalf("%s/%s: %d cover FDs, %d ranked", in.name, src.name, len(cover), len(ranked))
			}
			for _, f := range cover {
				check("mine-fds", f.Label)
			}
			for _, rf := range ranked {
				check("report", rf.Label)
			}
		}
	}
}
