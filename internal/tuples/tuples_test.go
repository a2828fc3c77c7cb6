package tuples

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"structmine/internal/datagen"
	"structmine/internal/ib"
	"structmine/internal/relation"
)

func build(t *testing.T, attrs []string, rows ...[]string) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder("t", attrs)
	for _, r := range rows {
		if err := b.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return b.Relation()
}

func TestObjectsShape(t *testing.T) {
	r := build(t, []string{"A", "B"},
		[]string{"x", "1"}, []string{"y", "2"},
	)
	objs := Objects(r)
	if len(objs) != 2 {
		t.Fatalf("objects %d", len(objs))
	}
	for _, o := range objs {
		if math.Abs(o.W-0.5) > 1e-12 {
			t.Fatalf("p(t) = %v, want 1/2", o.W)
		}
		if o.Cond.Support() != 2 {
			t.Fatalf("support %d, want m=2", o.Cond.Support())
		}
		if math.Abs(o.Cond.Sum()-1) > 1e-12 {
			t.Fatalf("conditional not normalized")
		}
	}
}

func TestFindExactDuplicates(t *testing.T) {
	r := build(t, []string{"A", "B", "C"},
		[]string{"p1", "x", "1"},
		[]string{"q1", "y", "2"},
		[]string{"p1", "x", "1"}, // dup of 0
		[]string{"r1", "z", "3"},
		[]string{"p1", "x", "1"}, // dup of 0
		[]string{"q1", "y", "2"}, // dup of 1
	)
	rep := FindDuplicatesCtx(context.Background(), r, 0.0, 4)
	if len(rep.Summaries) != 2 {
		t.Fatalf("summaries %d, want 2", len(rep.Summaries))
	}
	// Tuples 0, 2, 4 must share a group; 1 and 5 the other.
	if rep.Assign[0].Cluster != rep.Assign[2].Cluster || rep.Assign[2].Cluster != rep.Assign[4].Cluster {
		t.Fatalf("triple duplicate split: %+v", rep.Assign)
	}
	if rep.Assign[1].Cluster != rep.Assign[5].Cluster {
		t.Fatalf("pair duplicate split: %+v", rep.Assign)
	}
	if rep.Assign[0].Cluster == rep.Assign[1].Cluster {
		t.Fatalf("distinct duplicates merged: %+v", rep.Assign)
	}
	// Exact duplicates associate at zero loss.
	for _, i := range []int{0, 1, 2, 4, 5} {
		if rep.Assign[i].Loss > 1e-9 {
			t.Fatalf("tuple %d loss %v, want 0", i, rep.Assign[i].Loss)
		}
	}
	// The unique tuple 3 is beyond the association cutoff: no candidate.
	if rep.Assign[3].Cluster != -1 {
		t.Fatalf("unique tuple should not be a duplicate candidate: %+v", rep.Assign[3])
	}
}

func TestFindNearDuplicates(t *testing.T) {
	// Tuple 2 is tuple 0 with one of six values changed; φT > 0 should
	// group them.
	r := build(t, []string{"A", "B", "C", "D", "E", "F"},
		[]string{"a", "b", "c", "d", "e", "f"},
		[]string{"u", "v", "w", "x", "y", "z"},
		[]string{"a", "b", "c", "d", "e", "DIFF"},
		[]string{"u", "v", "w", "x", "y", "z"},
	)
	rep := FindDuplicatesCtx(context.Background(), r, 0.4, 4)
	if len(rep.Summaries) == 0 {
		t.Fatal("no summaries found")
	}
	if rep.Assign[0].Cluster != rep.Assign[2].Cluster {
		t.Fatalf("near duplicate not grouped with source: %+v", rep.Assign)
	}
	if rep.Assign[0].Cluster == rep.Assign[1].Cluster {
		t.Fatalf("unrelated tuples grouped: %+v", rep.Assign)
	}
}

func TestFindDuplicatesNone(t *testing.T) {
	r := build(t, []string{"A", "B"},
		[]string{"a", "1"}, []string{"b", "2"}, []string{"c", "3"},
	)
	rep := FindDuplicatesCtx(context.Background(), r, 0.0, 4)
	if len(rep.Summaries) != 0 {
		t.Fatalf("found phantom duplicates: %d", len(rep.Summaries))
	}
	for _, a := range rep.Assign {
		if a.Cluster != -1 {
			t.Fatalf("assignment without summaries: %+v", a)
		}
	}
}

// twoKindsRelation builds a relation overloaded with two tuple types
// (the paper's product-orders vs service-orders scenario).
func twoKindsRelation(t *testing.T, nA, nB int) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder("orders", []string{"Type", "Field1", "Field2", "Field3"})
	for i := 0; i < nA; i++ {
		b.MustAdd("product", "sku"+strconv.Itoa(i%5), "warehouse", "NULL")
	}
	for i := 0; i < nB; i++ {
		b.MustAdd("service", "NULL", "tech"+strconv.Itoa(i%4), "visit")
	}
	return b.Relation()
}

func TestPartitionSeparatesTupleTypes(t *testing.T) {
	r := twoKindsRelation(t, 30, 20)
	res := partition(r, 20, 4, 2)
	if res.K != 2 {
		t.Fatalf("K=%d", res.K)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters %d", len(res.Clusters))
	}
	if len(res.Clusters[0]) != 30 || len(res.Clusters[1]) != 20 {
		t.Fatalf("cluster sizes %d/%d, want 30/20", len(res.Clusters[0]), len(res.Clusters[1]))
	}
	// Partitions must be pure: same Type value within each cluster.
	for _, cl := range res.Clusters {
		kind := r.ValueString(r.Value(cl[0], 0))
		for _, tup := range cl {
			if r.ValueString(r.Value(tup, 0)) != kind {
				t.Fatalf("mixed cluster")
			}
		}
	}
	if res.InfoLossFrac < 0 || res.InfoLossFrac > 1 {
		t.Fatalf("loss fraction %v", res.InfoLossFrac)
	}
}

func TestPartitionAutoK(t *testing.T) {
	r := twoKindsRelation(t, 30, 20)
	res := partition(r, 20, 4, 0)
	if res.K != 2 {
		t.Fatalf("heuristic chose k=%d, want 2", res.K)
	}
}

func TestChooseKNoJump(t *testing.T) {
	// Uniform losses: no natural clustering → k = 1.
	curve := []ib.InfoPoint{{K: 5}, {K: 4, Loss: 0.1}, {K: 3, Loss: 0.1}, {K: 2, Loss: 0.1}, {K: 1, Loss: 0.1}}
	if k := ChooseK(curve); k != 1 {
		t.Fatalf("k=%d, want 1", k)
	}
	if k := ChooseK(nil); k != 1 {
		t.Fatalf("empty curve k=%d", k)
	}
}

func TestChooseKDetectsJump(t *testing.T) {
	curve := []ib.InfoPoint{
		{K: 6}, {K: 5, Loss: 0.01}, {K: 4, Loss: 0.012}, {K: 3, Loss: 0.011},
		{K: 2, Loss: 0.5}, {K: 1, Loss: 0.6},
	}
	if k := ChooseK(curve); k != 3 {
		t.Fatalf("k=%d, want 3 (jump at the 3→2 merge)", k)
	}
}

func TestCompress(t *testing.T) {
	r := build(t, []string{"A", "B"},
		[]string{"x", "1"}, []string{"x", "1"}, []string{"y", "2"}, []string{"x", "1"},
	)
	assign, k := CompressCtx(context.Background(), r, 0.0, 4)
	if k != 2 {
		t.Fatalf("k=%d, want 2", k)
	}
	if assign[0] != assign[1] || assign[1] != assign[3] {
		t.Fatalf("identical tuples in different clusters: %v", assign)
	}
	if assign[0] == assign[2] {
		t.Fatalf("distinct tuples share a cluster: %v", assign)
	}
}

// partition is PartitionColumns over a resident relation.
func partition(r *relation.Relation, maxLeaves, b, k int) *PartitionResult {
	res, err := PartitionColumns(context.Background(), relation.AsColumns(r), maxLeaves, b, k)
	if err != nil {
		panic(err) // an in-memory relation has no failing reads
	}
	return res
}

func randomCSVRel(t *testing.T, n int, seed int64) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString("a,b,c\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "v%d,w%d,u%d\n", rng.Intn(6), rng.Intn(4), rng.Intn(5))
	}
	r, err := relation.ReadCSV("t", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("median empty = %v", m)
	}
}

// The two exported halves of a PartitionResult must agree: Clusters is
// sorted largest first, and Assign[t].Cluster indexes that sorted order,
// not the order Phase 2 listed the representatives in.
func TestPartitionAssignIndexesClusters(t *testing.T) {
	for _, r := range []*relation.Relation{
		twoKindsRelation(t, 20, 30), twoKindsRelation(t, 30, 20), randomCSVRel(t, 400, 5),
	} {
		for _, k := range []int{0, 2, 3, 5} {
			res := partition(r, 40, 4, k)
			if len(res.Assign) != r.N() {
				t.Fatalf("k=%d: %d assignments for %d tuples", k, len(res.Assign), r.N())
			}
			for tup, a := range res.Assign {
				if a.Cluster < 0 || a.Cluster >= len(res.Clusters) {
					t.Fatalf("k=%d tuple %d: cluster %d of %d", k, tup, a.Cluster, len(res.Clusters))
				}
				found := false
				for _, member := range res.Clusters[a.Cluster] {
					found = found || member == tup
				}
				if !found {
					t.Fatalf("k=%d (K=%d) tuple %d: not in Clusters[%d]", k, res.K, tup, a.Cluster)
				}
			}
		}
	}
}

// TestDedupFindsEveryExactDuplicate: at φT = 0 the duplicate groups are
// exactly the classes of tuples whose rows repeat, checked against a
// rendered-row map. A DCF-tree at τ = 0 splits some of those classes
// across leaves: grouped by it, the duplicates on DBLP 3 000 × 13 seed 4
// cover 12 of the 14 repeated tuples, on the 50 000 × 7 projection 8 of
// 12.
func TestDedupFindsEveryExactDuplicate(t *testing.T) {
	cases := []struct {
		name string
		r    *relation.Relation
	}{
		{"dblp-3000x13-seed4", datagen.NewDBLP(datagen.DBLPConfig{Tuples: 3000, Seed: 4})},
	}
	if !testing.Short() {
		full := datagen.NewDBLP(datagen.DBLPConfig{Tuples: 50000, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28})
		cases = append(cases, struct {
			name string
			r    *relation.Relation
		}{"dblp-50000x7", full.Project(datagen.ProjectionAttrs())})
	}
	for _, tc := range cases {
		r := tc.r
		byRow := map[string][]int{}
		for i := 0; i < r.N(); i++ {
			key := fmt.Sprint(r.Row(i))
			byRow[key] = append(byRow[key], i)
		}
		want := map[string]bool{}
		repeated := 0
		for _, ts := range byRow {
			if len(ts) > 1 {
				want[fmt.Sprint(ts)] = true
				repeated += len(ts)
			}
		}
		rep := FindDuplicatesCtx(context.Background(), r, 0, 4)
		covered := 0
		for _, g := range rep.Groups {
			covered += len(g)
			if !want[fmt.Sprint(g)] {
				t.Errorf("%s: group %v is not a class of identical rows", tc.name, g)
			}
		}
		if covered != repeated || len(rep.Groups) != len(want) {
			t.Errorf("%s: %d groups cover %d tuples; %d classes of identical rows hold %d",
				tc.name, len(rep.Groups), covered, len(want), repeated)
		}
	}
}
