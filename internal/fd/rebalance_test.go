package fd

import (
	"context"
	"reflect"
	"testing"

	"structmine/internal/datagen"
	"structmine/internal/exec"
	"structmine/internal/exec/exectest"
	"structmine/internal/relation"
)

func dblp(tuples int, seed int64) *relation.Relation {
	return datagen.NewDBLP(datagen.DBLPConfig{Tuples: tuples, Seed: seed, MiscFrac: 129.0 / 50000, JournalFrac: 0.28})
}

// Regression: TANE's per-level fan-out sized its per-worker scratch from
// one read of the live budget and fanned out on another, so a grant
// rebalanced in between (another job releasing) ran wider than the
// scratch slice and a worker panicked with an index out of range —
// taking the daemon down. Under a rebalancing scheduler both miners must
// finish and return what an unrebalanced run returns.
func TestFanoutSurvivesRebalance(t *testing.T) {
	c := relation.AsColumns(dblp(3000, 1))
	quiet := exec.WithWorkers(context.Background(), 1)
	wantFDs, err := TANEColumnsCtx(quiet, NewSets(quiet, c))
	if err != nil {
		t.Fatal(err)
	}
	wantApprox, err := MineApproxColumns(quiet, NewSets(quiet, c), 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}

	ctx := exectest.RebalancingContext(t)
	for i := 0; i < 3; i++ {
		fds, err := TANEColumnsCtx(ctx, NewSets(ctx, c))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fds, wantFDs) {
			t.Fatalf("run %d: TANE under rebalance returned %d FDs, unrebalanced %d", i, len(fds), len(wantFDs))
		}
		approx, err := MineApproxColumns(ctx, NewSets(ctx, c), 0.05, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(approx, wantApprox) {
			t.Fatalf("run %d: MineApprox under rebalance diverged from the unrebalanced run", i)
		}
	}
}
