package joins

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"structmine/internal/colstore"
	"structmine/internal/datagen"
	"structmine/internal/relation"
	"structmine/internal/store"
)

// sigsOf sketches a resident relation; in-memory reads cannot fail.
func sigsOf(r *relation.Relation) []Signature {
	sigs, err := Signatures(relation.AsColumns(r))
	if err != nil {
		panic(err)
	}
	return sigs
}

func findJoinable(t *testing.T, minContainment float64, minDistinct int, rels ...relation.Columns) []Candidate {
	t.Helper()
	cands, err := FindJoinable(rels, minContainment, minDistinct)
	if err != nil {
		t.Fatal(err)
	}
	return cands
}

func db2Tables(t *testing.T) []*relation.Relation {
	t.Helper()
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	return []*relation.Relation{db.Employee, db.Department, db.Project}
}

func resident(rels []*relation.Relation) []relation.Columns {
	cols := make([]relation.Columns, len(rels))
	for i, r := range rels {
		cols[i] = relation.AsColumns(r)
	}
	return cols
}

func TestSignaturesBasics(t *testing.T) {
	b := relation.NewBuilder("r", []string{"A", "B"})
	b.MustAdd("x", "1")
	b.MustAdd("y", "")
	b.MustAdd("x", "2")
	r := b.Relation()
	sigs := sigsOf(r)
	if len(sigs) != 2 {
		t.Fatalf("signatures %d", len(sigs))
	}
	if sigs[0].Distinct != 2 {
		t.Fatalf("A distinct %d, want 2", sigs[0].Distinct)
	}
	// NULL excluded: B has values {1, 2}.
	if sigs[1].Distinct != 2 {
		t.Fatalf("B distinct %d, want 2 (NULL excluded)", sigs[1].Distinct)
	}
}

func TestResemblanceExact(t *testing.T) {
	mk := func(vals ...string) Signature {
		b := relation.NewBuilder("t", []string{"A"})
		for _, v := range vals {
			b.MustAdd(v)
		}
		return sigsOf(b.Relation())[0]
	}
	a := mk("1", "2", "3", "4")
	b := mk("3", "4", "5", "6")
	if j := Resemblance(a, b); math.Abs(j-2.0/6) > 1e-12 {
		t.Fatalf("Jaccard %v, want 1/3", j)
	}
	if j := Resemblance(a, a); j != 1 {
		t.Fatalf("self Jaccard %v", j)
	}
	if c := Containment(a, b); math.Abs(c-0.5) > 1e-12 {
		t.Fatalf("containment %v, want 0.5", c)
	}
	empty := mk()
	if Resemblance(a, empty) != 0 || Containment(empty, a) != 0 {
		t.Fatal("empty signature should resemble nothing")
	}
}

func TestFindJoinableOnDB2Tables(t *testing.T) {
	cands := findJoinable(t, 0.95, 3, resident(db2Tables(t))...)

	find := func(fr, fa, tr, ta string) *Candidate {
		for i := range cands {
			c := cands[i]
			if c.FromRelation == fr && c.FromAttr == fa && c.ToRelation == tr && c.ToAttr == ta {
				return &cands[i]
			}
		}
		return nil
	}
	// The two join paths of the paper's construction must surface.
	if c := find("EMPLOYEE", "WorkDepNo", "DEPARTMENT", "DepNo"); c == nil || c.Containment < 0.99 {
		t.Errorf("WorkDepNo ⊆ DepNo not found: %+v", c)
	}
	if c := find("PROJECT", "DeptNo", "DEPARTMENT", "DepNo"); c == nil || c.Containment < 0.99 {
		t.Errorf("Project.DeptNo ⊆ DepNo not found: %+v", c)
	}
	// The project's responsible employee points into EMPLOYEE.EmpNo.
	if c := find("PROJECT", "RespEmpNo", "EMPLOYEE", "EmpNo"); c == nil {
		t.Errorf("RespEmpNo ⊆ EmpNo not found")
	}
	// Sanity: no candidate relates FirstName to DepNo.
	if c := find("EMPLOYEE", "FirstName", "DEPARTMENT", "DepNo"); c != nil {
		t.Errorf("spurious candidate: %+v", c)
	}
}

// TestFindJoinablePagedMatchesResident: the same CSVs ingested into
// colstore files and opened as paged tables sketch to exactly the
// candidates the resident relations give — the sketch depends on the
// dictionary alone, and both tiers carry the same one.
func TestFindJoinablePagedMatchesResident(t *testing.T) {
	rels := db2Tables(t)
	dir := t.TempDir()
	paged := make([]relation.Columns, len(rels))
	for i, r := range rels {
		var csv bytes.Buffer
		if err := r.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		open := func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(csv.Bytes())), nil }
		meta := store.DatasetMeta{Hash: fmt.Sprintf("%064d", i), Name: r.Name}
		path, err := colstore.Ingest(dir, meta, open, relation.Limits{}, colstore.WriteOptions{PageRows: 8})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := colstore.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer tbl.Close()
		paged[i] = tbl
	}
	want := findJoinable(t, 0.5, 2, resident(rels)...)
	if got := findJoinable(t, 0.5, 2, paged...); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("paged candidates differ from resident:\n got %+v\nwant %+v", got, want)
	}
}

func TestFindJoinableOrdering(t *testing.T) {
	cands := findJoinable(t, 0.5, 2, resident(db2Tables(t)[:2])...)
	for i := 1; i < len(cands); i++ {
		if cands[i].Containment > cands[i-1].Containment+1e-12 {
			t.Fatal("candidates not sorted by containment")
		}
	}
}

// Sketch estimates must track exact Jaccard within tolerance on large
// random sets.
func TestPropSketchAccuracy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 600 + rng.Intn(1000)
		overlap := rng.Intn(n)
		b1 := relation.NewBuilder("a", []string{"V"})
		b2 := relation.NewBuilder("b", []string{"V"})
		for i := 0; i < n; i++ {
			b1.MustAdd(fmt.Sprintf("v%d", i))
			if i < overlap {
				b2.MustAdd(fmt.Sprintf("v%d", i))
			} else {
				b2.MustAdd(fmt.Sprintf("w%d", i))
			}
		}
		s1 := sigsOf(b1.Relation())[0]
		s2 := sigsOf(b2.Relation())[0]
		exact := float64(overlap) / float64(2*n-overlap)
		est := Resemblance(s1, s2)
		return math.Abs(est-exact) < 0.12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeBottomK(t *testing.T) {
	a := []uint64{1, 3, 5}
	b := []uint64{2, 3, 6}
	got := mergeBottomK(a, b, 4)
	want := []uint64{1, 2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("merge %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge %v, want %v", got, want)
		}
	}
}

func TestContainsSorted(t *testing.T) {
	a := []uint64{2, 4, 6}
	if !containsSorted(a, 4) || containsSorted(a, 5) || containsSorted(a, 1) || containsSorted(a, 7) {
		t.Fatal("binary search wrong")
	}
	if containsSorted(nil, 1) {
		t.Fatal("empty contains")
	}
}

// Containment on sketched (non-exact) signatures: a strict subset of a
// large set must report containment near 1.
func TestContainmentSketched(t *testing.T) {
	b1 := relation.NewBuilder("small", []string{"V"})
	b2 := relation.NewBuilder("big", []string{"V"})
	for i := 0; i < 2000; i++ {
		b2.MustAdd(fmt.Sprintf("v%d", i))
		if i%3 == 0 {
			b1.MustAdd(fmt.Sprintf("v%d", i))
		}
	}
	s1 := sigsOf(b1.Relation())[0]
	s2 := sigsOf(b2.Relation())[0]
	if c := Containment(s1, s2); c < 0.85 {
		t.Fatalf("subset containment %v, want ≈1", c)
	}
	// Reverse direction is ≈ 1/3.
	if c := Containment(s2, s1); math.Abs(c-1.0/3) > 0.12 {
		t.Fatalf("reverse containment %v, want ≈0.33", c)
	}
}
