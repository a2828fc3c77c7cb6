package tuples

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"structmine/internal/datagen"
	"structmine/internal/fd"
	"structmine/internal/limbo"
	"structmine/internal/relation"
)

// dirtyRelation has exact duplicates (every 7th tuple repeats tuple 0 of
// its block) and near duplicates (every 5th differs from its
// predecessor in one of five values), so a Phase 1 pass leaves
// multi-tuple leaves at φT = 0 and more of them at φT > 0.
func dirtyRelation(t *testing.T, n int) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder("dirty", []string{"A", "B", "C", "D", "E"})
	row := func(i int) []string {
		return []string{
			fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%11), fmt.Sprintf("c%d", i%5),
			fmt.Sprintf("d%d", i/3), fmt.Sprintf("e%d", i%2),
		}
	}
	for i := 0; i < n; i++ {
		r := row(i)
		switch {
		case i%7 == 6:
			r = row(i - 6)
		case i%5 == 4:
			r = row(i - 1)
			r[2] = "changed"
		}
		if err := b.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return b.Relation()
}

// TestSummarizeMatchesTree checks Summarize against the construction it
// replaced: a limbo.BuildTreeCtx tree read through a pointer map. At
// φT = 0 the summary numbers its leaves by first member, so the tree's
// leaves are renumbered by FirstID (the founding tuple) before the
// comparison.
func TestSummarizeMatchesTree(t *testing.T) {
	ctx := context.Background()
	r := dirtyRelation(t, 300)
	objs := Objects(r)
	for _, phiT := range []float64{0, 0.3, 1} {
		sum := Summarize(ctx, objs, phiT, 4)

		tree := limbo.NewTreeCtx(context.Background(), limbo.Config{B: 4, Threshold: limbo.Threshold(phiT, limbo.MutualInfo(objs), len(objs))})
		leafOf := make([]*limbo.DCF, len(objs))
		for i, o := range objs {
			leafOf[i] = tree.Insert(o)
		}
		leaves := tree.Leaves()
		if phiT == 0 {
			sort.Slice(leaves, func(i, j int) bool { return leaves[i].FirstID < leaves[j].FirstID })
		}
		index := map[*limbo.DCF]int32{}
		var multi []*limbo.DCF
		for i, d := range leaves {
			index[d] = int32(i)
			if d.N >= 2 {
				multi = append(multi, d)
			}
		}
		if sum.Threshold != tree.Threshold() || sum.LeafCount != tree.LeafCount() {
			t.Fatalf("φT=%v: τ %v, %d leaves; the tree has τ %v, %d leaves",
				phiT, sum.Threshold, sum.LeafCount, tree.Threshold(), tree.LeafCount())
		}
		for i, d := range leafOf {
			if sum.LeafOf[i] != index[d] {
				t.Fatalf("φT=%v: tuple %d in leaf %d, the tree says %d", phiT, i, sum.LeafOf[i], index[d])
			}
		}
		if len(sum.Multi) != len(multi) || len(multi) == 0 {
			t.Fatalf("φT=%v: %d multi-tuple leaves, the tree has %d", phiT, len(sum.Multi), len(multi))
		}
		for i, d := range multi {
			got := sum.Multi[i]
			if math.Float64bits(got.W) != math.Float64bits(d.W) || got.N != d.N || got.FirstID != d.FirstID ||
				!reflect.DeepEqual(got.Cond(), d.Cond()) {
				t.Fatalf("φT=%v: multi-tuple leaf %d differs from the tree's", phiT, i)
			}
		}
	}
}

// TestDuplicatesAtZeroMatchesPhase3 holds duplicate detection at φT = 0,
// which reads the groups off Π_R (FindDuplicatesColumns), to the
// construction it replaced: Phase 1 at τ = 0 over the tuple objects
// (Summarize), then Phase 3 (limbo.AssignCtx) of every tuple against the
// multi-tuple leaves, cut at τ + 1e-12. Every tuple's cluster and every
// group are the same; a member's loss is 0 where Phase 3's is at most
// 1e-12, and a non-member's is +Inf where Phase 3's exceeds the cutoff.
// The summaries are the multi-tuple leaves bit for bit, and the leaf
// count and threshold are Phase 1's.
func TestDuplicatesAtZeroMatchesPhase3(t *testing.T) {
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	proj := datagen.NewDBLP(datagen.DBLPConfig{Tuples: 5200, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28})
	cases := []struct {
		name string
		r    *relation.Relation
	}{
		{"db2-joined", db.Joined},
		{"db2-joined-duplicated", datagen.InjectExactDuplicates(db.Joined, 2, 7).Dirty},
		{"dblp-3000x13", datagen.NewDBLP(datagen.DBLPConfig{Tuples: 3000, Seed: 2})},
		{"dblp-5200x7", proj.Project(datagen.ProjectionAttrs())},
	}
	ctx := context.Background()
	for _, tc := range cases {
		objs := Objects(tc.r)
		sum := Summarize(ctx, objs, 0, 4)
		rep, err := FindDuplicatesColumns(ctx, fd.NewSets(ctx, relation.AsColumns(tc.r)), 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		if rep.LeafCount != sum.LeafCount || rep.Threshold != 0 || sum.Threshold != 0 {
			t.Fatalf("%s: %d leaves at τ %v; Phase 1 has %d at τ %v", tc.name, rep.LeafCount, rep.Threshold, sum.LeafCount, sum.Threshold)
		}
		if !reflect.DeepEqual(rep.Summaries, sum.Multi) {
			t.Fatalf("%s: the summaries differ from Phase 1's multi-tuple leaves", tc.name)
		}
		for i, d := range sum.Multi {
			if got := rep.Summaries[i]; math.Float64bits(got.W) != math.Float64bits(d.W) {
				t.Fatalf("%s: summary %d has mass %v, Phase 1's leaf %v", tc.name, i, got.W, d.W)
			}
		}

		want := limbo.AssignCtx(ctx, sum.Multi, objs)
		wantGroups := make([][]int, len(sum.Multi))
		for i, a := range want {
			if a.Loss > sum.Threshold+1e-12 {
				a.Cluster = -1
			}
			got := rep.Assign[i]
			if got.Cluster != a.Cluster {
				t.Fatalf("%s: tuple %d in group %d, Phase 3 says %d", tc.name, i, got.Cluster, a.Cluster)
			}
			switch {
			case a.Cluster >= 0 && got.Loss != 0:
				t.Fatalf("%s: member %d at loss %v, want 0", tc.name, i, got.Loss)
			case a.Cluster >= 0 && a.Loss > 1e-12:
				t.Fatalf("%s: Phase 3 associates member %d at loss %v", tc.name, i, a.Loss)
			case a.Cluster < 0 && !math.IsInf(got.Loss, 1):
				t.Fatalf("%s: non-member %d at loss %v, want +Inf", tc.name, i, got.Loss)
			}
			if a.Cluster >= 0 {
				wantGroups[a.Cluster] = append(wantGroups[a.Cluster], i)
			}
		}
		if !reflect.DeepEqual(rep.Groups, wantGroups) {
			t.Fatalf("%s: groups differ from Phase 3's", tc.name)
		}
		t.Logf("%s: %d multi-tuple leaves", tc.name, len(sum.Multi))
	}
}
