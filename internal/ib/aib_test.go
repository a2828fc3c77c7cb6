package ib

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"structmine/internal/it"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// paperAttrs builds the three attribute objects of the Section 7 worked
// example (matrix F of Figure 9, normalized, uniform priors).
func paperAttrs() []Object {
	return []Object{
		{Label: "A", P: 1.0 / 3, Cond: it.NewVec([]it.Entry{{Idx: 0, P: 1}})},
		{Label: "B", P: 1.0 / 3, Cond: it.NewVec([]it.Entry{{Idx: 0, P: 0.4}, {Idx: 1, P: 0.6}})},
		{Label: "C", P: 1.0 / 3, Cond: it.NewVec([]it.Entry{{Idx: 1, P: 1}})},
	}
}

func TestAgglomeratePaperExample(t *testing.T) {
	res := AgglomerateKCtx(context.Background(), paperAttrs(), 1)
	if len(res.Merges) != 2 {
		t.Fatalf("want 2 merges, got %d", len(res.Merges))
	}
	m0, m1 := res.Merges[0], res.Merges[1]
	// First merge must be B (1) and C (2), per the paper's dendrogram.
	if !(m0.Left == 1 && m0.Right == 2) {
		t.Fatalf("first merge = (%d,%d), want (1,2)", m0.Left, m0.Right)
	}
	if !almostEqual(m0.Loss, 0.15768, 1e-4) {
		t.Errorf("first merge loss %v, want ≈0.1577", m0.Loss)
	}
	if !almostEqual(m1.Loss, 0.5155, 2e-3) {
		t.Errorf("final merge loss %v, want ≈0.5155 (paper: ~0.52)", m1.Loss)
	}
	if !almostEqual(res.MaxLoss(), m1.Loss, 1e-12) {
		t.Errorf("MaxLoss %v != final loss %v", res.MaxLoss(), m1.Loss)
	}
}

func TestMembersAndClustersAt(t *testing.T) {
	res := AgglomerateKCtx(context.Background(), paperAttrs(), 1)
	// Node 3 is the first merge (B,C); node 4 the root.
	got := res.Members(3)
	if len(got) != 2 {
		t.Fatalf("members(3) = %v", got)
	}
	all := res.Members(4)
	if len(all) != 3 {
		t.Fatalf("members(root) = %v", all)
	}

	k2, err := res.ClustersAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(k2) != 2 {
		t.Fatalf("k=2 clusters: %v", k2)
	}
	sizes := map[int]int{}
	for _, g := range k2 {
		sizes[len(g)]++
	}
	if sizes[1] != 1 || sizes[2] != 1 {
		t.Fatalf("k=2 cluster sizes wrong: %v", k2)
	}

	k3, err := res.ClustersAt(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(k3) != 3 {
		t.Fatalf("k=3: %v", k3)
	}
	if _, err := res.ClustersAt(0); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := res.ClustersAt(4); err == nil {
		t.Fatal("k>q should error")
	}
}

func TestAgglomerateKStopsEarly(t *testing.T) {
	res := AgglomerateKCtx(context.Background(), paperAttrs(), 2)
	if len(res.Merges) != 1 {
		t.Fatalf("want 1 merge, got %d", len(res.Merges))
	}
	if res.Merges[0].K != 2 {
		t.Fatalf("K after merge = %d", res.Merges[0].K)
	}
}

func TestAgglomerateEdgeCases(t *testing.T) {
	if res := AgglomerateKCtx(context.Background(), nil, 1); len(res.Merges) != 0 {
		t.Fatal("empty input should produce no merges")
	}
	one := []Object{{Label: "x", P: 1, Cond: it.Uniform([]int32{0})}}
	if res := AgglomerateKCtx(context.Background(), one, 1); len(res.Merges) != 0 {
		t.Fatal("single object should produce no merges")
	}
	if res := AgglomerateKCtx(context.Background(), paperAttrs(), 10); len(res.Merges) != 0 {
		t.Fatal("k >= q should produce no merges")
	}
	if res := AgglomerateKCtx(context.Background(), paperAttrs(), -1); len(res.Merges) != 2 {
		t.Fatal("k < 1 should clamp to 1")
	}
}

func TestIdenticalObjectsMergeAtZeroLoss(t *testing.T) {
	c := it.Uniform([]int32{3, 7})
	objs := []Object{
		{Label: "x", P: 0.25, Cond: c},
		{Label: "y", P: 0.25, Cond: c},
		{Label: "z", P: 0.5, Cond: it.Uniform([]int32{9})},
	}
	res := AgglomerateKCtx(context.Background(), objs, 1)
	if !almostEqual(res.Merges[0].Loss, 0, 1e-12) {
		t.Fatalf("identical objects should merge first at zero loss, got %v", res.Merges[0].Loss)
	}
	m := res.Merges[0]
	if !(m.Left == 0 && m.Right == 1) {
		t.Fatalf("wrong first merge (%d,%d)", m.Left, m.Right)
	}
}

func TestInfoCurveMatchesDirectComputation(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	objs := randomObjects(r, 8, 16)
	res := AgglomerateKCtx(context.Background(), objs, 1)
	curve := res.InfoCurve()
	if len(curve) != len(objs) {
		t.Fatalf("curve length %d, want %d", len(curve), len(objs))
	}
	// For every k, recompute I(Ck;T) directly from the clustering and
	// compare with the telescoped value.
	for _, pt := range curve {
		dcfs, err := res.ClusterDCFsAt(pt.K)
		if err != nil {
			t.Fatal(err)
		}
		px := make([]float64, len(dcfs))
		cond := make([]it.Vec, len(dcfs))
		for i, d := range dcfs {
			px[i] = d.P
			cond[i] = d.Cond
		}
		direct := (&it.JointDist{PX: px, CondT: cond}).MutualInfo()
		if !almostEqual(direct, pt.I, 1e-9) {
			t.Errorf("k=%d: telescoped I=%v direct I=%v", pt.K, pt.I, direct)
		}
		directH := it.EntropyDense(px)
		if !almostEqual(directH, pt.H, 1e-9) {
			t.Errorf("k=%d: telescoped H=%v direct H=%v", pt.K, pt.H, directH)
		}
		if !almostEqual(pt.HCondT, pt.H-pt.I, 1e-9) {
			t.Errorf("k=%d: HCondT inconsistent", pt.K)
		}
	}
}

func TestInfoCurveMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	objs := randomObjects(r, 10, 12)
	curve := AgglomerateKCtx(context.Background(), objs, 1).InfoCurve()
	for i := 1; i < len(curve); i++ {
		if curve[i].I > curve[i-1].I+1e-9 {
			t.Fatalf("I(Ck;T) increased at step %d: %v -> %v", i, curve[i-1].I, curve[i].I)
		}
	}
	last := curve[len(curve)-1]
	if last.K != 1 || !almostEqual(last.I, 0, 1e-9) {
		t.Fatalf("final point k=%d I=%v, want k=1 I=0", last.K, last.I)
	}
}

func TestClusterDCFsMassConservation(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	objs := randomObjects(r, 9, 12)
	res := AgglomerateKCtx(context.Background(), objs, 1)
	for k := 1; k <= len(objs); k++ {
		dcfs, err := res.ClusterDCFsAt(k)
		if err != nil {
			t.Fatal(err)
		}
		tot := 0.0
		for _, d := range dcfs {
			tot += d.P
			if len(d.Cond) > 0 && !almostEqual(d.Cond.Sum(), 1, 1e-9) {
				t.Fatalf("k=%d: cluster conditional not normalized: %v", k, d.Cond.Sum())
			}
		}
		if !almostEqual(tot, 1, 1e-9) {
			t.Fatalf("k=%d: total mass %v", k, tot)
		}
	}
}

func TestDendrogramLeafOrderAndTable(t *testing.T) {
	res := AgglomerateKCtx(context.Background(), paperAttrs(), 1)
	d := res.Dendrogram()
	order := d.LeafOrder()
	if len(order) != 3 {
		t.Fatalf("leaf order %v", order)
	}
	// B and C merged first so they must be adjacent in display order.
	pos := map[int]int{}
	for i, o := range order {
		pos[o] = i
	}
	if abs(pos[1]-pos[2]) != 1 {
		t.Fatalf("B and C not adjacent in %v", order)
	}
	table := d.MergeTable()
	if !strings.Contains(table, "{B} + {C}") {
		t.Fatalf("merge table missing first merge:\n%s", table)
	}
	if !strings.Contains(table, "k=1") {
		t.Fatalf("merge table missing final merge:\n%s", table)
	}
}

func TestDendrogramASCII(t *testing.T) {
	res := AgglomerateKCtx(context.Background(), paperAttrs(), 1)
	art := res.Dendrogram().ASCII(60)
	for _, label := range []string{"A", "B", "C"} {
		if !strings.Contains(art, label) {
			t.Fatalf("ASCII missing label %s:\n%s", label, art)
		}
	}
	if !strings.Contains(art, "+") {
		t.Fatalf("ASCII missing merge joints:\n%s", art)
	}
	if empty := (&Result{}).Dendrogram().ASCII(40); !strings.Contains(empty, "empty") {
		t.Fatalf("empty dendrogram rendering: %q", empty)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func randomObjects(r *rand.Rand, q, dims int) []Object {
	objs := make([]Object, q)
	masses := make([]float64, q)
	tot := 0.0
	for i := range masses {
		masses[i] = r.Float64() + 0.1
		tot += masses[i]
	}
	for i := range objs {
		n := 1 + r.Intn(4)
		es := make([]it.Entry, 0, n)
		seen := map[int32]bool{}
		for len(es) < n {
			ix := int32(r.Intn(dims))
			if seen[ix] {
				continue
			}
			seen[ix] = true
			es = append(es, it.Entry{Idx: ix, P: r.Float64() + 0.05})
		}
		objs[i] = Object{
			Label: string(rune('a' + i)),
			P:     masses[i] / tot,
			Cond:  it.NewVec(es).Normalize(),
		}
	}
	return objs
}

// Property: greedy AIB never records a negative loss, K decreases by one
// per merge, and every node appears as a child at most once.
func TestPropMergeSequenceWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := 2 + r.Intn(12)
		res := AgglomerateKCtx(context.Background(), randomObjects(r, q, 10), 1)
		if len(res.Merges) != q-1 {
			return false
		}
		children := map[int]bool{}
		for i, m := range res.Merges {
			if m.Loss < 0 {
				return false
			}
			if m.K != q-1-i {
				return false
			}
			if children[m.Left] || children[m.Right] {
				return false
			}
			children[m.Left], children[m.Right] = true, true
			if m.Node != q+i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the sum of all merge losses equals the initial I(V;T)
// (clustering everything into one cluster destroys all information).
func TestPropTotalLossEqualsInitialMI(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := 2 + r.Intn(10)
		objs := randomObjects(r, q, 8)
		res := AgglomerateKCtx(context.Background(), objs, 1)
		px := make([]float64, q)
		cond := make([]it.Vec, q)
		for i, o := range objs {
			px[i] = o.P
			cond[i] = o.Cond
		}
		initial := (&it.JointDist{PX: px, CondT: cond}).MutualInfo()
		sum := 0.0
		for _, m := range res.Merges {
			sum += m.Loss
		}
		return almostEqual(sum, initial, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCutAtLoss(t *testing.T) {
	res := AgglomerateKCtx(context.Background(), paperAttrs(), 1)
	// Losses: 0.158 (B,C) then 0.5155 (A joins). Cut between them.
	groups := res.CutAtLoss(0.3)
	if len(groups) != 2 {
		t.Fatalf("cut at 0.3 should give 2 clusters, got %v", groups)
	}
	// Cutting below everything: singletons.
	if got := res.CutAtLoss(0.01); len(got) != 3 {
		t.Fatalf("cut at 0.01 should give singletons, got %v", got)
	}
	// Cutting above everything: one cluster.
	if got := res.CutAtLoss(1.0); len(got) != 1 {
		t.Fatalf("cut at 1.0 should give one cluster, got %v", got)
	}
	// Negative bound still yields all singletons.
	if got := res.CutAtLoss(-1); len(got) != 3 {
		t.Fatalf("negative cut: %v", got)
	}
}

func TestCutAtLossEmpty(t *testing.T) {
	if got := AgglomerateKCtx(context.Background(), nil, 1).CutAtLoss(1); got != nil {
		t.Fatalf("empty result cut: %v", got)
	}
}

func TestNumObjects(t *testing.T) {
	if got := AgglomerateKCtx(context.Background(), paperAttrs(), 1).NumObjects(); got != 3 {
		t.Fatalf("NumObjects: %d", got)
	}
}
