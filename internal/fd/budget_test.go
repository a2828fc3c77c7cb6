package fd

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"structmine/internal/exec"
	"structmine/internal/relation"
)

// The determinism contract of the execution engine, pinned at the TANE
// partition-product kernel: any fixed worker budget must reproduce the
// serial reference exactly — the chunked product writes each tuple's
// class through a per-index pure function, so the worker count can only
// change who writes a slot, never what is written.
func TestPropBudgetSweepMatchesSerial(t *testing.T) {
	seeds := []int64{3, 17, 42}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, 80+rng.Intn(120), 4+rng.Intn(3), 2+rng.Intn(3))
		want, err := TANESerial(r)
		if err != nil {
			t.Fatalf("seed %d: serial: %v", seed, err)
		}
		for _, budget := range []int{1, 2, 4, 8} {
			ctx := exec.WithWorkers(context.Background(), budget)
			got, err := TANEColumnsCtx(ctx, NewSets(ctx, relation.AsColumns(r)))
			if err != nil {
				t.Fatalf("seed %d budget %d: %v", seed, budget, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d budget %d: FD list diverged from serial", seed, budget)
			}
		}
	}
}
