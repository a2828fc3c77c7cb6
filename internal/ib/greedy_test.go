package ib_test

import (
	"context"
	"math/rand"
	"testing"

	"structmine/internal/datagen"
	"structmine/internal/fd"
	"structmine/internal/ib"
	"structmine/internal/relation"
	"structmine/internal/task"
	"structmine/internal/tuples"
)

// TestAIBIsGreedyOnEquation3 holds the engine to equation (3) as an
// oracle that ignores tie order (ib.CheckGreedyOnEquation3) on seeded
// random sets with duplicated and proportional conditionals (q ≤ 64), on
// DB2's attribute objects (group-attrs at its defaults) and on
// cluster_narrow's 100 partition leaves (DBLP 5 200 × 7, seed 1).
func TestAIBIsGreedyOnEquation3(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		data := make([]byte, 2+r.Intn(90))
		r.Read(data)
		ib.CheckGreedyOnEquation3(t, ib.AgglomerateKCtx(ctx, ib.DecodeObjects(data), 1))
	}

	db2, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := task.GroupAttributes(ctx, fd.NewSets(ctx, relation.AsColumns(db2.Joined)), 0, 0, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	ib.CheckGreedyOnEquation3(t, g.Res)

	rel := datagen.NewDBLP(datagen.DBLPConfig{
		Tuples: 5200, Seed: 1,
		MiscFrac: 129.0 / 50000, JournalFrac: 0.28,
	}).Project(datagen.ProjectionAttrs())
	pr, err := tuples.PartitionColumns(ctx, relation.AsColumns(rel), 100, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q := len(pr.Res.Objects); q != 100 {
		t.Fatalf("%d partition leaves, want 100", q)
	}
	ib.CheckGreedyOnEquation3(t, pr.Res)
}
