package attrs

import (
	"context"
	"math"
	"strings"
	"testing"

	"structmine/internal/relation"
	"structmine/internal/values"
)

// clusterRelation is the plain (non-double) value clustering of a
// resident relation at φV.
func clusterRelation(r *relation.Relation, phiV float64, b int) *values.Clustering {
	ctx := context.Background()
	objs, err := values.ObjectsColumnsCtx(ctx, relation.AsColumns(r))
	if err != nil {
		panic(err) // an in-memory relation has no failing reads
	}
	return values.ClusterCtx(ctx, objs, phiV, b, r.M())
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

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestGroupReproducesSection7 walks the full pipeline of the worked
// example: Figure 4 relation → value clustering (φV=0) → matrix F →
// attribute dendrogram with merges at ≈0.158 (B,C) and ≈0.5155 (A with
// BC); the paper reports these as ~0.1 and ~0.52 on its Figure 10 axis.
func TestGroupReproducesSection7(t *testing.T) {
	r := fig4(t)
	c := clusterRelation(r, 0.0, 4)
	g := GroupCtx(context.Background(), r, c)
	if len(g.AttrIdx) != 3 {
		t.Fatalf("A^D = %v, want all 3 attributes", g.AttrIdx)
	}
	if len(g.Res.Merges) != 2 {
		t.Fatalf("merges %d", len(g.Res.Merges))
	}
	first, second := g.Res.Merges[0], g.Res.Merges[1]
	if !almostEqual(first.Loss, 0.15768, 1e-3) {
		t.Errorf("first merge loss %v, want ≈0.158", first.Loss)
	}
	if !almostEqual(second.Loss, 0.5155, 2e-3) {
		t.Errorf("second merge loss %v, want ≈0.5155", second.Loss)
	}
	// First merge pairs B and C.
	names := map[string]bool{}
	for _, obj := range g.Res.Members(first.Node) {
		names[g.Names[obj]] = true
	}
	if !names["B"] || !names["C"] || len(names) != 2 {
		t.Fatalf("first merge members %v, want {B,C}", names)
	}
	if !almostEqual(g.MaxLoss(), second.Loss, 1e-12) {
		t.Fatalf("MaxLoss %v", g.MaxLoss())
	}
}

func TestMergeLossOf(t *testing.T) {
	r := fig4(t)
	c := clusterRelation(r, 0.0, 4)
	g := GroupCtx(context.Background(), r, c)
	bIdx, cIdx, aIdx := 1, 2, 0

	loss, ok := g.MergeLossOf([]int{bIdx, cIdx})
	if !ok || !almostEqual(loss, 0.15768, 1e-3) {
		t.Fatalf("loss(B,C) = %v ok=%v", loss, ok)
	}
	loss, ok = g.MergeLossOf([]int{aIdx, bIdx})
	if !ok || !almostEqual(loss, 0.5155, 2e-3) {
		t.Fatalf("loss(A,B) = %v ok=%v (A and B only meet at the root)", loss, ok)
	}
	// Single attribute: together trivially at loss 0.
	loss, ok = g.MergeLossOf([]int{aIdx})
	if !ok || loss != 0 {
		t.Fatalf("single attribute loss %v ok=%v", loss, ok)
	}
	// Attribute outside A^D.
	if _, ok := g.MergeLossOf([]int{99}); ok {
		t.Fatal("unknown attribute should report no merge")
	}
}

func TestGroupFromMatrixDirect(t *testing.T) {
	// The Figure 9 matrix entered directly.
	rows := [][]int64{{2, 0}, {2, 3}, {0, 4}}
	g := GroupFromMatrix(rows, []int{0, 1, 2}, []string{"A", "B", "C"})
	if len(g.Res.Merges) != 2 {
		t.Fatalf("merges %d", len(g.Res.Merges))
	}
	if !almostEqual(g.Res.Merges[0].Loss, 0.15768, 1e-3) {
		t.Fatalf("first loss %v", g.Res.Merges[0].Loss)
	}
}

func TestGroupEmpty(t *testing.T) {
	g := GroupFromMatrix(nil, nil, nil)
	if len(g.Res.Merges) != 0 {
		t.Fatal("empty grouping should have no merges")
	}
	if _, ok := g.MergeLossOf([]int{0}); ok {
		t.Fatal("empty grouping cannot cover any attribute")
	}
}

func TestDendrogramRendering(t *testing.T) {
	r := fig4(t)
	c := clusterRelation(r, 0.0, 4)
	g := GroupCtx(context.Background(), r, c)
	art := g.Dendrogram().ASCII(60)
	for _, name := range []string{"A", "B", "C"} {
		if !strings.Contains(art, name) {
			t.Fatalf("dendrogram missing %s:\n%s", name, art)
		}
	}
}

func TestZeroRowsExcludedFromAD(t *testing.T) {
	// Attribute with an all-zero F row must be excluded from A^D.
	rows := [][]int64{{2, 0}, {2, 3}}
	g := GroupFromMatrix(rows, []int{0, 2}, []string{"A", "B", "C"})
	if len(g.AttrIdx) != 2 {
		t.Fatalf("A^D %v", g.AttrIdx)
	}
	if _, ok := g.MergeLossOf([]int{1}); ok {
		t.Fatal("attribute 1 is outside A^D")
	}
}
