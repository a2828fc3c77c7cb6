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

// TestDeltaIObjZeroOnOwnGroup: a member of a group of objects with one
// conditional is within 1e-12 of the group at every group mass up to
// 10⁶, where the difference form reads a few ulps of W·log₂W (≈ 4e-9 at
// 10⁶). Members weigh what FuzzGroupZero's do, 1/64 to 1/4, or 1; a
// group is a thousand of them plus one heavy object with the same
// conditional that makes up the mass. δI is homogeneous in the masses,
// so the member's own mass sets the scale of what rounding leaves.
func TestDeltaIObjZeroOnOwnGroup(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 20; trial++ {
		cond := randObj(r, 0, 64, 6).Cond
		for _, w := range []float64{1.0 / 64, 11.0 / 64, 0.25, 1} {
			for _, total := range []float64{500, 1e4, 1e6} {
				const members = 1000
				d := NewDCF(Obj{ID: 0, W: total - members*w, Cond: cond})
				o := Obj{W: w, Cond: cond}
				for i := 1; i <= members; i++ {
					o.ID = int32(i)
					d.AbsorbObj(o)
				}
				if got := d.DeltaIObj(o); !(got <= 1e-12) {
					t.Fatalf("trial %d: member of mass %g in a group of mass %g: δI = %g, difference form %g",
						trial, w, d.W, got, d.deltaIObjRank(o))
				}
			}
		}
	}
}

// TestDeltaIObjMatchesRankForm: on random objects and clusters the
// ratio form agrees with the difference form within 8 ulps of W·log₂W,
// the scale of the difference form's own rounding (masses ≥ 1, so
// W·log₂W is its largest term).
func TestDeltaIObjMatchesRankForm(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	mass := func() float64 { return math.Exp(r.Float64() * math.Log(1e4)) }
	for trial := 0; trial < 20000; trial++ {
		o := randObj(r, 0, 24, 6)
		o.W = mass()
		c := randObj(r, 1, 24, 6)
		c.W = mass()
		d := NewDCF(c)
		for i := r.Intn(4); i > 0; i-- {
			m := randObj(r, int32(1+i), 24, 6)
			m.W = mass()
			d.AbsorbObj(m)
		}
		w := o.W + d.W
		ulp := math.Nextafter(w*math.Log2(w), math.Inf(1)) - w*math.Log2(w)
		got, rank := d.DeltaIObj(o), d.deltaIObjRank(o)
		if math.Abs(got-rank) > 8*ulp {
			t.Fatalf("trial %d: ratio form %.17g, difference form %.17g: %.1f ulps of W·log₂W = %g",
				trial, got, rank, math.Abs(got-rank)/ulp, w*math.Log2(w))
		}
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
