package limbo

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"structmine/internal/it"
)

// countObjs draws n objects of m distinct coordinates in [0, dom), each
// with the tuple masses p(t) = 1/total and p(v|t) = 1/m.
func countObjs(r *rand.Rand, id, n, m, dom, total int) []Obj {
	objs := make([]Obj, n)
	for i := range objs {
		vals := make([]int32, 0, m)
		seen := map[int32]bool{}
		for len(vals) < m {
			if v := int32(r.Intn(dom)); !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
		objs[i] = Obj{ID: int32(id + i), W: 1 / float64(total), Cond: it.Uniform(vals)}
	}
	return objs
}

// countCluster is the count DCF of objs, built by the count kernel's own
// insert path (one leaf absorbing every object), and its float twin,
// NewDCF + AbsorbObj over the same objects.
func countCluster(objs []Obj, k *countKernel) (*DCF, *DCF) {
	t := NewTreeCtx(context.Background(), Config{B: 4, Threshold: math.Inf(1)})
	t.ck = k
	fl := NewDCF(objs[0])
	for i, o := range objs {
		t.Insert(o)
		if i > 0 {
			fl.AbsorbObj(o)
		}
	}
	return t.leaves()[0], fl
}

// relNear is |a − b| ≤ tol·max(|a|, |b|).
func relNear(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// The count identity: on random count vectors — clusters of 1 to 400
// objects over small and wide coordinate domains, so that their tiers
// split between main and tail and the large ones carry the rank index —
// s₀ times the count kernel's δI between two clusters, and between an
// object and a cluster, is the float kernel's DeltaIDCF / DeltaIObj, and
// a count DCF's float form is its float twin, all within 1e-12
// relative. δI is relative to the merged mass p₁ + p₂, the most it can
// be (δI = (p₁+p₂)·JS, JS ≤ 1): the float kernel's rounding is of that
// order, so near zero — 0 exactly on counts for proportional clusters —
// δI itself is no scale.
func TestCountDeltaMatchesFloat(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	ranked, tailed := 0, 0
	for trial := 0; trial < 200; trial++ {
		m := 1 + r.Intn(8)
		dom := m + r.Intn([]int{8, 64, 2000}[trial%3])
		n1, n2 := 1+r.Intn(400), 1+r.Intn(60)
		total := n1 + n2 + 1
		objs := countObjs(r, 0, n1+n2+1, m, dom, total)
		k := countKernelFor(objs)
		if k == nil {
			t.Fatalf("trial %d: tuple-mass objects did not select the count kernel", trial)
		}
		a, fa := countCluster(objs[:n1], k)
		b, fb := countCluster(objs[n1:n1+n2], k)
		if err := validCounts(a, m); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if a.rank != nil {
			ranked++
		}
		if len(a.tidx) > 0 && len(a.idx) > 0 {
			tailed++
		}
		if got, want := k.delta(a, b)*k.s0, DeltaIDCF(fa, fb); math.Abs(got-want) > 1e-12*(fa.W+fb.W) {
			t.Fatalf("trial %d: s₀·δI(a,b) = %.17g on counts, DeltaIDCF = %.17g", trial, got, want)
		}
		o := objs[n1+n2]
		var c objCtx
		k.load(&c, o)
		pos := make([]int32, m)
		if got, want := k.deltaObj(a, &c, pos)*k.s0, fa.DeltaIObj(o); math.Abs(got-want) > 1e-12*(fa.W+o.W) {
			t.Fatalf("trial %d: s₀·δI(o,a) = %.17g on counts, DeltaIObj = %.17g", trial, got, want)
		}
		af := k.floatDCF(a)
		if af.N != fa.N || !relNear(af.W, fa.W, 1e-12) {
			t.Fatalf("trial %d: float form (N %d, W %v), twin (%d, %v)", trial, af.N, af.W, fa.N, fa.W)
		}
		ac, fc := af.Cond(), fa.Cond()
		if len(ac) != len(fc) {
			t.Fatalf("trial %d: float form support %d, twin %d", trial, len(ac), len(fc))
		}
		for i := range fc {
			if ac[i].Idx != fc[i].Idx || !relNear(ac[i].P, fc[i].P, 1e-12) {
				t.Fatalf("trial %d: float form p(%d|c) = %v, twin p(%d|c) = %v", trial, ac[i].Idx, ac[i].P, fc[i].Idx, fc[i].P)
			}
		}
	}
	if ranked == 0 || tailed == 0 {
		t.Fatalf("the draws never reached a ranked (%d) or two-tier (%d) count DCF", ranked, tailed)
	}
}

// The count kernel is chosen from the objects: tuple objects select it;
// a second mass, a second width or a non-uniform conditional does not.
func TestCountKernelFor(t *testing.T) {
	tup := tupleObjs([][]int32{{0, 10}, {1, 11}, {0, 12}})
	if k := countKernelFor(tup); k == nil || k.m != 2 || k.s0 != tup[0].W/2 {
		t.Fatalf("tuple objects: kernel %+v", k)
	}
	heavier := append([]Obj(nil), tup...)
	heavier[1].W *= 2
	wider := append([]Obj(nil), tup...)
	wider[2].Cond = it.Uniform([]int32{0, 12, 20})
	skewed := append([]Obj(nil), tup...)
	skewed[0].Cond = it.Vec{{Idx: 0, P: 0.25}, {Idx: 10, P: 0.75}}
	for name, objs := range map[string][]Obj{"heavier": heavier, "wider": wider, "skewed": skewed, "empty": nil,
		"no coordinates": {{W: 1}}} {
		if k := countKernelFor(objs); k != nil {
			t.Errorf("%s: selected the count kernel", name)
		}
	}
}

// Coordinate ids only order a count tree's work: relabelling them
// order-preservingly and far apart — past the rank index's and tally's
// density rule, onto their binary-search and sorting paths — leaves the
// leaves and both information sums bit for bit.
func TestCountTreeSparseIDs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rows := smallDomainRows(r, 600, 5, 9)
	dense := tupleObjs(rows)
	sparse := make([]Obj, len(dense))
	for i, o := range dense {
		ids := make([]int32, len(o.Cond))
		for j, e := range o.Cond {
			ids[j] = e.Idx*400_000 + 3
		}
		sparse[i] = Obj{ID: o.ID, W: o.W, Cond: it.Uniform(ids)}
	}
	cfg := Config{B: 4, MaxLeafEntries: 30}
	td, ts := StreamTreeCtx(context.Background(), cfg, dense), StreamTreeCtx(context.Background(), cfg, sparse)
	ld, ls := td.leaves(), ts.leaves()
	if len(ld) != len(ls) {
		t.Fatalf("%d leaves on dense ids, %d on sparse", len(ld), len(ls))
	}
	assign := make([]Assignment, len(dense))
	for i, d := range ld {
		if d.N != ls[i].N || d.FirstID != ls[i].FirstID || ls[i].rank != nil {
			t.Fatalf("leaf %d: (N %d, first %d) dense, (%d, %d, ranked %v) sparse", i, d.N, d.FirstID, ls[i].N, ls[i].FirstID, ls[i].rank != nil)
		}
	}
	for i := range assign {
		assign[i].Cluster = i % 3
	}
	if a, b := td.Info(), ts.Info(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("leaf I(C;V) %v on dense ids, %v on sparse", a, b)
	}
	if a, b := td.InfoOf(dense, assign, 3), ts.InfoOf(sparse, assign, 3); math.Float64bits(a) != math.Float64bits(b) || a <= 0 {
		t.Fatalf("assignment I(C;V) %v on dense ids, %v on sparse", a, b)
	}
}
