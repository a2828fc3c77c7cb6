package limbo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"structmine/internal/it"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randObj(r *rand.Rand, id int32, dims, maxSupport int) Obj {
	n := 1 + r.Intn(maxSupport)
	seen := map[int32]bool{}
	es := make([]it.Entry, 0, n)
	for len(es) < n {
		ix := int32(r.Intn(dims))
		if seen[ix] {
			continue
		}
		seen[ix] = true
		es = append(es, it.Entry{Idx: ix, P: r.Float64() + 0.05})
	}
	return Obj{ID: id, W: r.Float64() + 0.05, Cond: it.NewVec(es).Normalize()}
}

func TestNewDCFSingleton(t *testing.T) {
	o := Obj{ID: 7, W: 0.25, Cond: it.Uniform([]int32{1, 3})}
	d := NewDCF(o)
	if d.W != 0.25 || d.N != 1 || d.FirstID != 7 {
		t.Fatalf("bad singleton: %+v", d)
	}
	if !almostEqual(d.At(1), 0.125, 1e-12) || !almostEqual(d.At(3), 0.125, 1e-12) {
		t.Fatalf("bad sums: support=%v", d.Support())
	}
	cond := d.Cond()
	if !cond.Equal(o.Cond, 1e-12) {
		t.Fatalf("Cond() != input: %v vs %v", cond, o.Cond)
	}
}

func TestAbsorbObjMatchesEquations1And2(t *testing.T) {
	// Merging clusters: p(c*) = p(c1)+p(c2); p(T|c*) is the mass-weighted
	// mixture.
	o1 := Obj{ID: 0, W: 0.25, Cond: it.Uniform([]int32{0, 1})}
	o2 := Obj{ID: 1, W: 0.75, Cond: it.Uniform([]int32{1, 2, 4})}
	d := NewDCF(o1)
	d.AbsorbObj(o2)
	if !almostEqual(d.W, 1.0, 1e-12) || d.N != 2 {
		t.Fatalf("bad merged mass: %+v", d)
	}
	want := it.Mix(0.25, o1.Cond, 0.75, o2.Cond)
	if !d.Cond().Equal(want, 1e-12) {
		t.Fatalf("merged conditional %v, want %v", d.Cond(), want)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := NewDCF(Obj{ID: 0, W: 0.5, Cond: it.Uniform([]int32{0})})
	c := a.Clone()
	c.AbsorbDCF(NewDCF(Obj{ID: 1, W: 0.5, Cond: it.Uniform([]int32{1})}))
	if a.W != 0.5 || a.N != 1 || a.SupportLen() != 1 {
		t.Fatalf("clone aliased original: %+v", a)
	}
}

// The weighted-sum δI identity must agree with the direct equation (3)
// computation (it.DeltaI on normalized conditionals).
func TestPropDeltaIdentityMatchesDirect(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		o1 := randObj(r, 0, 24, 8)
		o2 := randObj(r, 1, 24, 8)
		d1, d2 := NewDCF(o1), NewDCF(o2)
		direct := it.DeltaI(o1.W, o1.Cond, o2.W, o2.Cond)
		viaObj := d2.DeltaIObj(o1)
		viaDCF := DeltaIDCF(d1, d2)
		return almostEqual(direct, viaObj, 1e-9) && almostEqual(direct, viaDCF, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The identity must also hold after absorptions (multi-object DCFs).
func TestPropDeltaIdentityAfterMerges(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d1 := NewDCF(randObj(r, 0, 16, 6))
		d1.AbsorbObj(randObj(r, 1, 16, 6))
		d2 := NewDCF(randObj(r, 2, 16, 6))
		d2.AbsorbObj(randObj(r, 3, 16, 6))
		d2.AbsorbObj(randObj(r, 4, 16, 6))
		direct := it.DeltaI(d1.W, d1.Cond(), d2.W, d2.Cond())
		return almostEqual(direct, DeltaIDCF(d1, d2), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaIZeroForIdenticalConditionals(t *testing.T) {
	cond := it.Uniform([]int32{2, 5, 9})
	d := NewDCF(Obj{ID: 0, W: 0.3, Cond: cond})
	if got := d.DeltaIObj(Obj{ID: 1, W: 0.7, Cond: cond}); !almostEqual(got, 0, 1e-12) {
		t.Fatalf("identical conditionals: δI = %v", got)
	}
}

func TestDeltaIDisjointSingletons(t *testing.T) {
	d := NewDCF(Obj{ID: 0, W: 0.5, Cond: it.Uniform([]int32{0})})
	got := d.DeltaIObj(Obj{ID: 1, W: 0.5, Cond: it.Uniform([]int32{1})})
	if !almostEqual(got, 1.0, 1e-12) {
		t.Fatalf("disjoint equal-mass singletons: δI = %v, want 1", got)
	}
}

func TestSupportSorted(t *testing.T) {
	d := NewDCF(Obj{ID: 0, W: 1, Cond: it.Uniform([]int32{9, 2, 5})})
	s := d.Support()
	if len(s) != 3 || s[0] != 2 || s[1] != 5 || s[2] != 9 {
		t.Fatalf("support %v", s)
	}
}

func TestCondEmpty(t *testing.T) {
	d := &DCF{}
	if d.Cond() != nil {
		t.Fatal("empty DCF should have nil conditional")
	}
}
