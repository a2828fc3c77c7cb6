package values

import (
	"context"
	"math"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"structmine/internal/exec"
	"structmine/internal/exec/exectest"
	"structmine/internal/limbo"
	"structmine/internal/relation"
)

// fig4 is the paper's Figure 4 relation with perfectly co-occurring
// pairs {a,1} and {2,x}.
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

// fig5 is Figure 5: value x replaces p in tuple 2, breaking the perfect
// co-occurrence of {2,x}.
func fig5(t *testing.T) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder("fig5", []string{"A", "B", "C"})
	b.MustAdd("a", "1", "p")
	b.MustAdd("a", "1", "x")
	b.MustAdd("w", "2", "x")
	b.MustAdd("y", "2", "x")
	b.MustAdd("z", "2", "x")
	return b.Relation()
}

// objects and clusterRelation build a resident relation's value objects
// and its plain (non-double) value clustering at φV.
func objects(r *relation.Relation) []limbo.Obj {
	objs, err := ObjectsColumnsCtx(context.Background(), relation.AsColumns(r))
	if err != nil {
		panic(err) // an in-memory relation has no failing reads
	}
	return objs
}

func clusterRelation(r *relation.Relation, phiV float64, b int) *Clustering {
	return ClusterCtx(context.Background(), objects(r), phiV, b, r.M())
}

func groupStrings(r *relation.Relation, c *Clustering, gi int) []string {
	var out []string
	for _, v := range c.Groups[gi].Values {
		out = append(out, r.ValueLabel(v))
	}
	sort.Strings(out)
	return out
}

func TestObjectsMatchPaperMatrices(t *testing.T) {
	r := fig4(t)
	objs := objects(r)
	if len(objs) != 9 {
		t.Fatalf("d=%d, want 9", len(objs))
	}
	for _, o := range objs {
		if math.Abs(o.W-1.0/9) > 1e-12 {
			t.Fatalf("p(v)=%v, want 1/9", o.W)
		}
		if math.Abs(o.Cond.Sum()-1) > 1e-12 {
			t.Fatalf("row of N not normalized")
		}
	}
	// Value x (attribute C) appears in tuples 2,3,4 with p=1/3 each; its
	// O row is (0,0,3).
	x := r.Value(2, 2)
	ox := objs[x]
	if ox.Cond.Support() != 3 || math.Abs(ox.Cond.At(2)-1.0/3) > 1e-12 {
		t.Fatalf("N row of x wrong: %v", ox.Cond)
	}
	if !reflect.DeepEqual(ox.Counts, []int64{0, 0, 3}) {
		t.Fatalf("O row of x = %v", ox.Counts)
	}
}

func TestClusterFig4PerfectCooccurrence(t *testing.T) {
	r := fig4(t)
	c := clusterRelation(r, 0.0, 4)
	// The paper: φV = 0 clusters {a,1} and {2,x}; 7 groups total.
	if len(c.Groups) != 7 {
		t.Fatalf("groups=%d, want 7", len(c.Groups))
	}
	dups := c.DuplicateGroups()
	if len(dups) != 2 {
		t.Fatalf("C_V^D size %d, want 2", len(dups))
	}
	got := map[string]bool{}
	for _, gi := range dups {
		key := ""
		for _, s := range groupStrings(r, c, gi) {
			key += s + ";"
		}
		got[key] = true
	}
	if !got["A=a;B=1;"] || !got["B=2;C=x;"] {
		t.Fatalf("C_V^D groups wrong: %v", got)
	}
	if len(c.NonDuplicateGroups()) != 5 {
		t.Fatalf("C_V^ND size %d, want 5", len(c.NonDuplicateGroups()))
	}
}

func TestClusterFig5ApproximateCooccurrence(t *testing.T) {
	r := fig5(t)
	// With φV = 0, x and 2 no longer merge (x also occurs in tuple 1).
	c0 := clusterRelation(r, 0.0, 4)
	for _, gi := range c0.DuplicateGroups() {
		gs := groupStrings(r, c0, gi)
		for _, s := range gs {
			if s == "C=x" && len(gs) > 1 {
				t.Fatalf("x should not merge at φV=0: %v", gs)
			}
		}
	}
	// With a small positive φV the paper recovers {2,x} as an
	// almost-perfect pair (its Figure 8 uses φV=0.1; under our literal
	// τ = φ·I(V;T)/d normalization the {2,x} merge costs 0.0345 while
	// τ(0.1) = 0.020, so 0.2 is the smallest grid value that admits it —
	// see DESIGN.md on the paper's under-specified threshold scale).
	c1 := clusterRelation(r, 0.2, 4)
	found := false
	for _, gi := range c1.DuplicateGroups() {
		gs := groupStrings(r, c1, gi)
		if reflect.DeepEqual(gs, []string{"B=2", "C=x"}) {
			found = true
		}
	}
	if !found {
		var all [][]string
		for gi := range c1.Groups {
			all = append(all, groupStrings(r, c1, gi))
		}
		t.Fatalf("φV=0.1 should recover {2,x}; groups: %v", all)
	}
}

func TestMatrixFMatchesFigure9(t *testing.T) {
	r := fig4(t)
	c := clusterRelation(r, 0.0, 4)
	rows, attrIdx := c.MatrixF()
	if len(rows) != 3 {
		t.Fatalf("A^D size %d, want 3 (all attributes)", len(rows))
	}
	if !reflect.DeepEqual(attrIdx, []int{0, 1, 2}) {
		t.Fatalf("attrIdx %v", attrIdx)
	}
	// Normalize column order: the {a,1} column has A non-zero.
	var colA1, col2X int
	if rows[0][0] != 0 {
		colA1, col2X = 0, 1
	} else {
		colA1, col2X = 1, 0
	}
	// Figure 9 (on Figure 4 data): A=(2,0), B=(2,3), C=(0,3).
	want := map[int][2]int64{0: {2, 0}, 1: {2, 3}, 2: {0, 3}}
	for a, w := range want {
		if rows[a][colA1] != w[0] || rows[a][col2X] != w[1] {
			t.Fatalf("F row %d = %v, want %v", a, rows[a], w)
		}
	}
}

func TestMatrixFEmptyWhenNoDuplicates(t *testing.T) {
	b := relation.NewBuilder("nodup", []string{"A", "B"})
	b.MustAdd("a", "1")
	b.MustAdd("b", "2")
	r := b.Relation()
	c := clusterRelation(r, 0.0, 4)
	rows, attrIdx := c.MatrixF()
	if rows != nil || attrIdx != nil {
		t.Fatalf("expected empty F, got %v %v", rows, attrIdx)
	}
}

func TestObjectsOverClusters(t *testing.T) {
	r := fig4(t)
	// Compress tuples: t0,t1 -> cluster 0; t2,t3,t4 -> cluster 1.
	assign := []int{0, 0, 1, 1, 1}
	objs := ObjectsOverClusters(r, assign, 2)
	if len(objs) != 9 {
		t.Fatalf("objects %d", len(objs))
	}
	// Value a (tuples 0,1) concentrates all mass on cluster 0.
	a := r.Value(0, 0)
	if math.Abs(objs[a].Cond.At(0)-1) > 1e-12 {
		t.Fatalf("a over clusters: %v", objs[a].Cond)
	}
	// Value x (tuples 2,3,4) concentrates on cluster 1.
	x := r.Value(2, 2)
	if math.Abs(objs[x].Cond.At(1)-1) > 1e-12 {
		t.Fatalf("x over clusters: %v", objs[x].Cond)
	}
	// Double clustering at φV=0 now merges a,1 with each other (and
	// everything living purely in cluster 0 of equal distribution).
	c := ClusterCtx(context.Background(), objs, 0.0, 4, r.M())
	var sizes []int
	for _, g := range c.Groups {
		sizes = append(sizes, len(g.Values))
	}
	sort.Ints(sizes)
	// Two groups: {a,1,p,r} (cluster-0 values) and {w,y,z,2,x}.
	if !reflect.DeepEqual(sizes, []int{4, 5}) {
		t.Fatalf("double-clustered group sizes %v", sizes)
	}
}

func TestDuplicateCriterion(t *testing.T) {
	// A value repeated across tuples but in one attribute only is NOT in
	// C_V^D (needs ≥2 attributes).
	b := relation.NewBuilder("city", []string{"Name", "City"})
	b.MustAdd("Pat", "Boston")
	b.MustAdd("Sal", "Boston")
	b.MustAdd("Lee", "Boston")
	r := b.Relation()
	c := clusterRelation(r, 0.0, 4)
	for _, gi := range c.DuplicateGroups() {
		for _, s := range groupStrings(r, c, gi) {
			if s == "City=Boston" {
				t.Fatal("Boston spans one attribute; must not be in C_V^D")
			}
		}
	}
}

func TestAssignmentCoversAllValues(t *testing.T) {
	r := fig4(t)
	c := clusterRelation(r, 0.0, 4)
	if len(c.Assign) != r.D() {
		t.Fatalf("assignments %d, want %d", len(c.Assign), r.D())
	}
	total := 0
	for _, g := range c.Groups {
		total += len(g.Values)
	}
	if total != r.D() {
		t.Fatalf("group membership covers %d values, want %d", total, r.D())
	}
	// φV=0 association is exact: zero loss everywhere.
	for v, a := range c.Assign {
		if a.Loss > 1e-9 {
			t.Fatalf("value %d assigned at loss %v", v, a.Loss)
		}
	}
}

func TestAnomalies(t *testing.T) {
	// Figure 5: the stray x in tuple 2 is the anomalous value. With a
	// coarse φV the values cluster; the imperfectly-fitting ones carry
	// positive association loss.
	r := fig5(t)
	c := clusterRelation(r, 0.2, 4)
	anomalies := c.Anomalies(5)
	if len(anomalies) == 0 {
		t.Fatal("expected at least one anomalous value")
	}
	for i := 1; i < len(anomalies); i++ {
		if anomalies[i].Loss > anomalies[i-1].Loss {
			t.Fatal("anomalies not sorted by loss")
		}
	}
	// The top anomaly must involve the {2,x} group's imperfection: one
	// of the values x or 2.
	top := r.ValueLabel(anomalies[0].Value)
	if top != "C=x" && top != "B=2" {
		t.Errorf("top anomaly %s, want C=x or B=2", top)
	}
	// Exact clustering has no anomalies.
	exact := clusterRelation(fig4(t), 0.0, 4)
	if got := exact.Anomalies(0); len(got) != 0 {
		t.Fatalf("exact clustering should have none, got %v", got)
	}
}

// Regression: the per-attribute fan-out behind the object builders sized
// its per-worker scratch from one read of the live budget and fanned out
// on another, so a grant rebalanced in between indexed past the scratch
// slice. Under a rebalancing scheduler the build must finish and equal an
// unrebalanced one.
func TestFanoutSurvivesRebalance(t *testing.T) {
	attrs := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	b := relation.NewBuilder("wide", attrs)
	row := make([]string, len(attrs))
	for i := 0; i < 3000; i++ {
		for j := range row {
			row[j] = strconv.Itoa(i % (3 + 5*j))
		}
		b.MustAdd(row...)
	}
	c := relation.AsColumns(b.Relation())
	want, err := ObjectsColumnsCtx(exec.WithWorkers(context.Background(), 1), c)
	if err != nil {
		t.Fatal(err)
	}

	ctx := exectest.RebalancingContext(t)
	for i := 0; i < 40; i++ {
		got, err := ObjectsColumnsCtx(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("build %d: objects under rebalance diverge from the unrebalanced build", i)
		}
	}
}
