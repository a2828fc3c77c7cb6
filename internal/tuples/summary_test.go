package tuples

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

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

		tree := limbo.NewTree(limbo.Config{B: 4, Threshold: limbo.Threshold(phiT, limbo.MutualInfo(objs), len(objs))})
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
				!reflect.DeepEqual(got.Counts, d.Counts) || !reflect.DeepEqual(got.Cond(), d.Cond()) {
				t.Fatalf("φT=%v: multi-tuple leaf %d differs from the tree's", phiT, i)
			}
		}
	}
}
