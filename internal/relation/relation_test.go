package relation

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// paperFig4 builds the relation of Figure 4 in the paper:
//
//	A B C
//	a 1 p
//	a 1 r
//	w 2 x
//	y 2 x
//	z 2 x
func paperFig4(t *testing.T) *Relation {
	t.Helper()
	b := NewBuilder("fig4", []string{"A", "B", "C"})
	b.MustAdd("a", "1", "p")
	b.MustAdd("a", "1", "r")
	b.MustAdd("w", "2", "x")
	b.MustAdd("y", "2", "x")
	b.MustAdd("z", "2", "x")
	return b.Relation()
}

func TestBasicShape(t *testing.T) {
	r := paperFig4(t)
	if r.N() != 5 || r.M() != 3 {
		t.Fatalf("n=%d m=%d", r.N(), r.M())
	}
	// Values: a,w,y,z (A) + 1,2 (B) + p,r,x (C) = 9, matching the paper.
	if r.D() != 9 {
		t.Fatalf("d=%d, want 9", r.D())
	}
}

func TestValueQualification(t *testing.T) {
	b := NewBuilder("q", []string{"X", "Y"})
	b.MustAdd("same", "same")
	r := b.Relation()
	if r.Value(0, 0) == r.Value(0, 1) {
		t.Fatal("same string under different attributes must get distinct ids")
	}
	if r.ValueLabel(r.Value(0, 0)) != "X=same" {
		t.Fatalf("label %q", r.ValueLabel(r.Value(0, 0)))
	}
}

func TestValueInterningIsStable(t *testing.T) {
	r := paperFig4(t)
	if r.Value(0, 0) != r.Value(1, 0) {
		t.Fatal("repeated value must share an id")
	}
	if r.Value(2, 2) != r.Value(3, 2) || r.Value(3, 2) != r.Value(4, 2) {
		t.Fatal("value x must share an id across tuples 3..5")
	}
}

func TestAddSchemaMismatch(t *testing.T) {
	b := NewBuilder("bad", []string{"A", "B"})
	if err := b.Add([]string{"only-one"}); err == nil {
		t.Fatal("want error on arity mismatch")
	}
}

func TestEmptyBecomesNull(t *testing.T) {
	b := NewBuilder("nulls", []string{"A"})
	b.MustAdd("")
	r := b.Relation()
	if !r.IsNull(0, 0) {
		t.Fatal("empty string should intern as NULL")
	}
	if got := r.NullFraction(0); got != 1 {
		t.Fatalf("null fraction %v", got)
	}
}

func TestNullFractionNoNulls(t *testing.T) {
	r := paperFig4(t)
	if f := r.NullFraction(0); f != 0 {
		t.Fatalf("null fraction %v, want 0", f)
	}
}

func TestStats(t *testing.T) {
	r := paperFig4(t)
	s := r.Stats()
	// Value "x" under C appears in tuples 2,3,4.
	x := r.Value(2, 2)
	if s.Count[x] != 3 {
		t.Fatalf("count(x)=%d", s.Count[x])
	}
	if !reflect.DeepEqual(s.Tuples[x], []int32{2, 3, 4}) {
		t.Fatalf("tuples(x)=%v", s.Tuples[x])
	}
	// Per-value counts must sum to n*m.
	tot := 0
	for _, c := range s.Count {
		tot += c
	}
	if tot != r.N()*r.M() {
		t.Fatalf("sum of counts %d != n*m %d", tot, r.N()*r.M())
	}
	// Every list is the ascending recount, in a window capped at its
	// length: appending to one never writes into the next.
	want := make([][]int32, r.D())
	for tu := 0; tu < r.N(); tu++ {
		for a := 0; a < r.M(); a++ {
			want[r.Value(tu, a)] = append(want[r.Value(tu, a)], int32(tu))
		}
	}
	for v := range want {
		if got := s.Tuples[v]; !reflect.DeepEqual(got, want[v]) || cap(got) != len(got) {
			t.Fatalf("tuples(%d) = %v (cap %d), want %v", v, got, cap(got), want[v])
		}
	}
}

func TestProject(t *testing.T) {
	r := paperFig4(t)
	p := r.Project([]int{1, 2}) // B, C
	if p.M() != 2 || p.N() != 5 || p.D() != 5 {
		t.Fatalf("projection %dx%d with %d values", p.N(), p.M(), p.D())
	}
	// Only the listed tuples: the first of each distinct (B, C) row.
	s, err := ProjectColumns(AsColumns(r), []int{1, 2}, "s1", []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"1", "p"}, {"1", "r"}, {"2", "x"}}
	if s.N() != len(want) {
		t.Fatalf("listed projection has %d rows, want %d", s.N(), len(want))
	}
	for i, row := range want {
		if got := s.TupleStrings(i); !reflect.DeepEqual(got, row) {
			t.Fatalf("row %d = %v, want %v", i, got, row)
		}
	}
}

func TestSelect(t *testing.T) {
	r := paperFig4(t)
	s := r.Select([]int{4, 0})
	if s.N() != 2 {
		t.Fatalf("n=%d", s.N())
	}
	if got := s.TupleStrings(0); !reflect.DeepEqual(got, []string{"z", "2", "x"}) {
		t.Fatalf("row 0 = %v", got)
	}
	if got := s.TupleStrings(1); !reflect.DeepEqual(got, []string{"a", "1", "p"}) {
		t.Fatalf("row 1 = %v", got)
	}
}

func TestAttrIndices(t *testing.T) {
	r := paperFig4(t)
	ix, err := r.AttrIndices([]string{"C", "A"})
	if err != nil || !reflect.DeepEqual(ix, []int{2, 0}) {
		t.Fatalf("ix=%v err=%v", ix, err)
	}
	if _, err := r.AttrIndices([]string{"Z"}); err == nil {
		t.Fatal("want error for unknown attribute")
	}
}

func TestEquiJoin(t *testing.T) {
	e := NewBuilder("E", []string{"EmpNo", "Name", "WorkDepNo"})
	e.MustAdd("1", "Pat", "D1")
	e.MustAdd("2", "Sal", "D2")
	e.MustAdd("3", "Lee", "D1")
	d := NewBuilder("D", []string{"DepNo", "DepName"})
	d.MustAdd("D1", "Sales")
	d.MustAdd("D2", "Eng")
	d.MustAdd("D3", "Empty")

	j, err := EquiJoin(e.Relation(), "WorkDepNo", d.Relation(), "DepNo")
	if err != nil {
		t.Fatal(err)
	}
	if j.M() != 4 { // EmpNo, Name, WorkDepNo, DepName — join column kept once
		t.Fatalf("m=%d attrs=%v", j.M(), j.Attrs)
	}
	if j.N() != 3 {
		t.Fatalf("n=%d", j.N())
	}
	found := false
	for t2 := 0; t2 < j.N(); t2++ {
		row := j.TupleStrings(t2)
		if row[0] == "2" && row[3] != "Eng" {
			t.Fatalf("bad join row %v", row)
		}
		if row[3] == "Empty" {
			found = true
		}
	}
	if found {
		t.Fatal("dangling department joined")
	}
}

func TestEquiJoinUnknownColumns(t *testing.T) {
	a := NewBuilder("A", []string{"X"})
	a.MustAdd("1")
	b := NewBuilder("B", []string{"Y"})
	b.MustAdd("1")
	if _, err := EquiJoin(a.Relation(), "nope", b.Relation(), "Y"); err == nil {
		t.Fatal("want error for unknown left column")
	}
	if _, err := EquiJoin(a.Relation(), "X", b.Relation(), "nope"); err == nil {
		t.Fatal("want error for unknown right column")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := paperFig4(t)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != r.N() || got.M() != r.M() || got.D() != r.D() {
		t.Fatalf("round trip shape changed: %d/%d/%d", got.N(), got.M(), got.D())
	}
	for i := 0; i < r.N(); i++ {
		if !reflect.DeepEqual(got.TupleStrings(i), r.TupleStrings(i)) {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestCSVNullRoundTrip(t *testing.T) {
	b := NewBuilder("nulls", []string{"A", "B"})
	b.MustAdd("x", "")
	var buf bytes.Buffer
	if err := b.Relation().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), Null) {
		t.Fatalf("NULL not serialized: %q", buf.String())
	}
	got, err := ReadCSV("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsNull(0, 1) {
		t.Fatal("NULL lost in round trip")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("empty", strings.NewReader("")); err == nil {
		t.Fatal("want error on empty input")
	}
}

func TestDomainSize(t *testing.T) {
	r := paperFig4(t)
	if r.DomainSize(0) != 4 || r.DomainSize(1) != 2 || r.DomainSize(2) != 3 {
		t.Fatalf("domain sizes %d/%d/%d", r.DomainSize(0), r.DomainSize(1), r.DomainSize(2))
	}
}

func TestValueAccessors(t *testing.T) {
	r := paperFig4(t)
	row := r.Row(0)
	if len(row) != 3 {
		t.Fatalf("row width %d", len(row))
	}
	if got := r.ValueString(row[0]); got != "a" {
		t.Fatalf("ValueString: %q", got)
	}
	if got := r.ValueAttr(row[2]); got != 2 {
		t.Fatalf("ValueAttr: %d", got)
	}
	id, ok := r.ValueID(1, "2")
	if !ok || r.ValueString(id) != "2" {
		t.Fatalf("ValueID: %d %v", id, ok)
	}
	if _, ok := r.ValueID(1, "missing"); ok {
		t.Fatal("ValueID should miss")
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	r := paperFig4(t)
	path := filepath.Join(t.TempDir(), "fig4.csv")
	if err := r.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != r.N() || got.M() != r.M() {
		t.Fatal("file round trip changed shape")
	}
	if _, err := ReadCSVFile(filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Fatal("missing file should error")
	}
	if err := r.WriteCSVFile("/nonexistent-dir/x.csv"); err == nil {
		t.Fatal("unwritable path should error")
	}
}
