package decompose

import (
	"context"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"structmine/internal/datagen"
	"structmine/internal/fd"
	"structmine/internal/relation"
)

// decomposeOn decomposes r on f on a kernel of its own, as one job does.
func decomposeOn(r *relation.Relation, f fd.FD) (*Result, error) {
	return OnSets(fd.NewSets(context.Background(), relation.AsColumns(r)), f)
}

func fig4(t *testing.T) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder("fig4", []string{"A", "B", "C"})
	b.MustAdd("a", "1", "p")
	b.MustAdd("a", "1", "r")
	b.MustAdd("w", "2", "x")
	b.MustAdd("y", "2", "x")
	b.MustAdd("z", "2", "x")
	return b.Relation()
}

// TestDecomposePaperExample reproduces the Section 7 claim: decomposing
// Figure 4 on C→B (into S1=(B,C), S2=(A,C)) reduces more tuples than
// decomposing on A→B.
func TestDecomposePaperExample(t *testing.T) {
	r := fig4(t)
	cToB := fd.FD{LHS: fd.NewAttrSet(2), RHS: fd.NewAttrSet(1)}
	aToB := fd.FD{LHS: fd.NewAttrSet(0), RHS: fd.NewAttrSet(1)}

	resC, err := decomposeOn(r, cToB)
	if err != nil {
		t.Fatal(err)
	}
	if err := resC.Lossless(relation.AsColumns(r), cToB); err != nil {
		t.Fatalf("C→B decomposition not lossless: %v", err)
	}
	// S1 = (B,C) projected distinctly: (1,p), (1,r), (2,x) = 3 rows.
	if resC.S1.N() != 3 || resC.S1.M() != 2 {
		t.Fatalf("S1 shape %dx%d", resC.S1.N(), resC.S1.M())
	}
	// S2 = (A,C): 5 rows.
	if resC.S2.N() != 5 || resC.S2.M() != 2 {
		t.Fatalf("S2 shape %dx%d", resC.S2.N(), resC.S2.M())
	}

	resA, err := decomposeOn(r, aToB)
	if err != nil {
		t.Fatal(err)
	}
	if err := resA.Lossless(relation.AsColumns(r), aToB); err != nil {
		t.Fatalf("A→B decomposition not lossless: %v", err)
	}
	// The paper: decomposing on C→B removes more redundancy.
	if resC.Reduction <= resA.Reduction {
		t.Fatalf("C→B reduction %.3f should beat A→B %.3f", resC.Reduction, resA.Reduction)
	}
}

func TestDecomposeDB2Department(t *testing.T) {
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	r := db.Joined
	lhs := fd.NewAttrSet(r.AttrIndex("WorkDepNo"))
	rhs := fd.NewAttrSet(r.AttrIndex("DepName")).Add(r.AttrIndex("MgrNo")).Add(r.AttrIndex("AdminDepNo"))
	f := fd.FD{LHS: lhs, RHS: rhs}

	res, err := decomposeOn(r, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Lossless(relation.AsColumns(r), f); err != nil {
		t.Fatal(err)
	}
	// 9 departments: S1 collapses to 9 rows of 4 attributes.
	if res.S1.N() != 9 || res.S1.M() != 4 {
		t.Fatalf("S1 shape %dx%d", res.S1.N(), res.S1.M())
	}
	if res.S2.M() != r.M()-3 {
		t.Fatalf("S2 width %d", res.S2.M())
	}
	if res.Reduction <= 0 {
		t.Fatalf("department decomposition should shrink storage, got %.3f", res.Reduction)
	}
	if res.RTR < 0.8 {
		t.Fatalf("RTR %v, expected high duplication", res.RTR)
	}
}

func TestDecomposeConstantRHS(t *testing.T) {
	b := relation.NewBuilder("c", []string{"A", "B"})
	b.MustAdd("x", "k")
	b.MustAdd("y", "k")
	b.MustAdd("z", "k")
	r := b.Relation()
	f := fd.FD{LHS: 0, RHS: fd.NewAttrSet(1)}
	res, err := decomposeOn(r, f)
	if err != nil {
		t.Fatal(err)
	}
	if res.S1.N() != 1 {
		t.Fatalf("constant S1 rows %d", res.S1.N())
	}
	if err := res.Lossless(relation.AsColumns(r), f); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeRejectsApproximate(t *testing.T) {
	r := fig4(t)
	bToC := fd.FD{LHS: fd.NewAttrSet(1), RHS: fd.NewAttrSet(2)} // does not hold
	if _, err := decomposeOn(r, bToC); err == nil {
		t.Fatal("approximate dependency must be rejected")
	}
}

func TestDecomposeRejectsTrivial(t *testing.T) {
	r := fig4(t)
	if _, err := decomposeOn(r, fd.FD{LHS: fd.NewAttrSet(0), RHS: fd.NewAttrSet(0)}); err == nil {
		t.Fatal("trivial dependency must be rejected")
	}
	if _, err := decomposeOn(r, fd.FD{LHS: fd.NewAttrSet(0), RHS: fd.NewAttrSet(9)}); err == nil {
		t.Fatal("out-of-range attribute must be rejected")
	}
}

// Property: decomposing on any mined FD is lossless, and the cell count
// never grows by more than the duplicated X columns.
func TestPropDecomposeLossless(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 3 + rng.Intn(2)
		attrs := make([]string, m)
		for i := range attrs {
			attrs[i] = "A" + strconv.Itoa(i)
		}
		b := relation.NewBuilder("rand", attrs)
		n := 4 + rng.Intn(25)
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
		fds, err := fd.FDEP(r)
		if err != nil {
			return false
		}
		for _, f := range fds {
			if f.Attrs().Count() == r.M() {
				continue // decomposition would be the identity
			}
			res, err := decomposeOn(r, f)
			if err != nil {
				return false
			}
			if err := res.Lossless(relation.AsColumns(r), f); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
