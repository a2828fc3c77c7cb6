package limbo_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"structmine/internal/datagen"
	"structmine/internal/limbo"
	"structmine/internal/relation"
	"structmine/internal/tuples"
	"structmine/internal/values"
)

// firstOf renders a membership as a partition: each object maps to the
// first object sharing its label, so two memberships are the same
// partition exactly when their firstOf slices are equal.
func firstOf[L comparable](labels []L) []int {
	first := map[L]int{}
	out := make([]int, len(labels))
	for i, l := range labels {
		f, ok := first[l]
		if !ok {
			f = i
			first[l] = i
		}
		out[i] = f
	}
	return out
}

// samePartition reports the first object whose class differs.
func samePartition(a, b []int) (int, bool) {
	for i := range a {
		if a[i] != b[i] {
			return i, false
		}
	}
	return -1, true
}

// checkAgainstTree holds the τ = 0 driver to a tree: the same partition
// of the objects, and every hash-pass leaf bit-identical (limbo.SameDCF:
// W, N, first member, every coordinate's mass in its tier, the
// rank index) to the tree leaf holding its first member. treeLeaf[i] is
// the tree leaf of object i.
func checkAgainstTree(t *testing.T, name string, objs []limbo.Obj, treeLeaf []*limbo.DCF) {
	t.Helper()
	leaves, leafOf := limbo.Phase1Ctx(context.Background(), objs, 0, 4)
	if i, ok := samePartition(firstOf(leafOf), firstOf(treeLeaf)); !ok {
		t.Fatalf("%s: object %d's group differs from the tree's", name, i)
	}
	seen := make([]bool, len(leaves))
	for i, g := range leafOf {
		if seen[g] {
			continue
		}
		seen[g] = true
		if err := limbo.SameDCF(leaves[g], treeLeaf[i]); err != nil {
			t.Fatalf("%s: leaf %d (first member %d) differs from the tree's: %v", name, g, i, err)
		}
	}
}

// streamed is the tuple-axis reference: each object's leaf as a τ = 0
// tree's Insert returns it.
func streamed(objs []limbo.Obj) []*limbo.DCF {
	tree := limbo.NewTreeCtx(context.Background(), limbo.Config{B: 4})
	out := make([]*limbo.DCF, len(objs))
	for i, o := range objs {
		out[i] = tree.Insert(o)
	}
	return out
}

// assigned is the value-axis reference, the construction value
// clustering used before the driver: BuildTreeCtx at φ = 0, then Phase 3
// over its leaves. It also holds values.ClusterCtx, which reads Phase 3's
// answer off Phase1Ctx's groups at φ = 0, to Phase 3 over the same
// leaves: every value keeps its group, and its loss is AssignCtx's bits
// or, where those are not 0, 0 against a loss of at most 1e-12.
func assigned(t *testing.T, name string, objs []limbo.Obj) []*limbo.DCF {
	t.Helper()
	ctx := context.Background()
	leaves := limbo.BuildTreeCtx(ctx, objs, 0, 4).Leaves()
	out := make([]*limbo.DCF, len(objs))
	for i, a := range limbo.AssignCtx(ctx, leaves, objs) {
		out[i] = leaves[a.Cluster]
	}
	grouped, leafOf := limbo.Phase1Ctx(ctx, objs, 0, 4)
	got := values.ClusterCtx(ctx, objs, 0, 4, len(objs[0].Counts)).Assign
	if len(got) != len(objs) {
		t.Fatalf("%s: %d assignments for %d values", name, len(got), len(objs))
	}
	nonzero := 0
	for i, a := range limbo.AssignCtx(ctx, grouped, objs) {
		if a.Cluster != int(leafOf[i]) {
			t.Fatalf("%s: Phase 3 moves value %d from group %d to %d", name, i, leafOf[i], a.Cluster)
		}
		if got[i].Cluster != a.Cluster {
			t.Fatalf("%s: ClusterCtx puts value %d in group %d, Phase 3 in %d", name, i, got[i].Cluster, a.Cluster)
		}
		if math.Float64bits(got[i].Loss) != math.Float64bits(a.Loss) {
			if got[i].Loss != 0 || a.Loss > 1e-12 {
				t.Fatalf("%s: value %d at loss %v, Phase 3 says %v", name, i, got[i].Loss, a.Loss)
			}
			nonzero++
		}
	}
	if nonzero > 0 {
		t.Logf("%s: %d of %d values at a Phase 3 loss in (0, 1e-12]", name, nonzero, len(objs))
	}
	return out
}

func dblp(n int, seed int64, full bool) *relation.Relation {
	cfg := datagen.DBLPConfig{Tuples: n, Seed: seed}
	if full {
		cfg.MiscFrac, cfg.JournalFrac = 129.0/50000, 0.28
	}
	return datagen.NewDBLP(cfg)
}

// TestPhase1ZeroMatchesTree: at τ = 0 the driver's hash pass partitions
// the objects as the DCF-tree does, with bit-identical leaves, on the
// tuple axis (streamed Insert membership) and the value axis, single
// (values over tuples) and double (values over the φT = 0 tuple
// clusters), each against BuildTreeCtx + AssignCtx.
func TestPhase1ZeroMatchesTree(t *testing.T) {
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name string
		r    *relation.Relation
	}{
		{"db2-joined", db.Joined},
		{"db2-joined-duplicated", datagen.InjectExactDuplicates(db.Joined, 2, 7).Dirty},
		{"dblp-3000x13-seed2", dblp(3000, 2, false)},
		{"dblp-3000x13-seed3", dblp(3000, 3, false)},
		{"dblp-5200x7", dblp(5200, 1, true).Project(datagen.ProjectionAttrs())},
	}
	if !testing.Short() {
		inputs = append(inputs, struct {
			name string
			r    *relation.Relation
		}{"dblp-8000x13", dblp(8000, 1, true)})
	}
	ctx := context.Background()
	for _, in := range inputs {
		r := in.r
		objs := tuples.Objects(r)
		checkAgainstTree(t, in.name+"/tuples", objs, streamed(objs))

		single, err := values.ObjectsColumnsCtx(ctx, relation.AsColumns(r))
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstTree(t, in.name+"/values", single, assigned(t, in.name+"/values", single))

		assign, k := tuples.CompressCtx(ctx, r, 0, 4)
		double := values.ObjectsOverClusters(r, assign, k)
		checkAgainstTree(t, in.name+"/values-over-clusters", double, assigned(t, in.name+"/values-over-clusters", double))
	}
}

// TestPhase1ZeroKeepsIdenticalRowsTogether: on these inputs the tree's
// greedy descent sends identical tuples down different branches, so its
// leaves split a class of identical rows; the driver's groups are
// exactly those classes.
func TestPhase1ZeroKeepsIdenticalRowsTogether(t *testing.T) {
	inputs := []struct {
		name string
		r    *relation.Relation
	}{
		{"dblp-3000x13-seed4", dblp(3000, 4, false)},
	}
	if !testing.Short() {
		inputs = append(inputs, struct {
			name string
			r    *relation.Relation
		}{"dblp-50000x7", dblp(50000, 1, true).Project(datagen.ProjectionAttrs())})
	}
	for _, in := range inputs {
		r := in.r
		rows := make([]string, r.N())
		for i := range rows {
			rows[i] = fmt.Sprint(r.Row(i))
		}
		byRow := firstOf(rows)
		objs := tuples.Objects(r)
		_, leafOf := limbo.Phase1Ctx(context.Background(), objs, 0, 4)
		if i, ok := samePartition(firstOf(leafOf), byRow); !ok {
			t.Fatalf("%s: tuple %d's group is not its class of identical rows", in.name, i)
		}
		tree := firstOf(streamed(objs))
		split := 0
		for i := range rows {
			if tree[i] != tree[byRow[i]] {
				split++
			}
		}
		if split == 0 {
			t.Fatalf("%s: the tree kept every class of identical rows together; the input no longer shows the split", in.name)
		}
		t.Logf("%s: the tree split %d tuples from their identical rows", in.name, split)
	}
}
