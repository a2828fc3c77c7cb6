package structmine

import (
	"context"
	"encoding/json"
	"testing"

	"structmine/internal/datagen"
)

func TestRunTaskFacade(t *testing.T) {
	b := NewRelation("r", []string{"A", "B", "C"})
	b.MustAdd("a1", "b1", "c1")
	b.MustAdd("a1", "b1", "c2")
	b.MustAdd("a2", "b2", "c3")
	b.MustAdd("a2", "b2", "c4")
	b.MustAdd("a3", "b3", "c5")
	m := NewMiner(b.Relation(), DefaultOptions())

	for _, name := range TaskNames() {
		if name == "joins" {
			continue
		}
		got, err := m.RunTask(context.Background(), name, TaskParams{})
		if err != nil {
			t.Errorf("RunTask(%s): %v", name, err)
			continue
		}
		if _, err := json.Marshal(got); err != nil {
			t.Errorf("RunTask(%s): marshal: %v", name, err)
		}
	}

	desc := m.DescribeResult()
	if desc.Tuples != 5 || desc.Attributes != 3 {
		t.Errorf("DescribeResult: %d×%d, want 5×3", desc.Tuples, desc.Attributes)
	}

	// Miner options flow into task params.
	m2 := NewMiner(m.Relation(), Options{Psi: 0.25})
	got, err := m2.RunTask(context.Background(), "rank-fds", TaskParams{})
	if err != nil {
		t.Fatal(err)
	}
	if got.(*RankFDsResult).Psi != 0.25 {
		t.Errorf("psi = %g, want the miner's 0.25", got.(*RankFDsResult).Psi)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.RunTask(ctx, "report", TaskParams{}); err == nil {
		t.Error("canceled context should abort RunTask")
	}
}

// TestRankFDsMatchesTask pins the facade's FD-RANK to the rank-fds task
// on both sides of the double-clustering switch: Miner.RankFDs composes
// nothing of its own, so on a small and on a large (> 5 000-row)
// instance it returns exactly the task's ranks.
func TestRankFDsMatchesTask(t *testing.T) {
	for _, tuples := range []int{1200, 5200} {
		cfg := datagen.DefaultDBLPConfig()
		cfg.Tuples = tuples
		r := datagen.NewDBLP(cfg)
		r = r.Project(datagen.ProjectionAttrs())
		m := NewMiner(r, DefaultOptions())

		fds, err := m.MineFDs()
		if err != nil {
			t.Fatal(err)
		}
		ranked, err := m.RankFDs(MinCover(fds))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunTask(context.Background(), "rank-fds", TaskParams{})
		if err != nil {
			t.Fatal(err)
		}
		want := res.(*RankFDsResult).Ranked
		if len(ranked) == 0 || len(ranked) != len(want) {
			t.Fatalf("n=%d: facade ranked %d FDs, task %d", r.N(), len(ranked), len(want))
		}
		for i, rf := range ranked {
			if label := m.FormatFD(rf.FD); label != want[i].FD.Label || rf.Rank != want[i].Rank {
				t.Errorf("n=%d row %d: facade %s rank %v, task %s rank %v",
					r.N(), i, label, rf.Rank, want[i].FD.Label, want[i].Rank)
			}
		}
	}
}
