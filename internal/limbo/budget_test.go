package limbo

import (
	"context"
	"math/rand"
	"testing"

	"structmine/internal/exec"
)

// The determinism contract of the execution engine, pinned at the LIMBO
// kernels: Phase 1 trees built under any fixed worker budget must have
// leaves bit-identical to the serial reference (the closest-entry scan
// reduces per-entry δI values serially after the fan-out), and Phase 3
// assignments must match exactly.
func TestPropBudgetSweepMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	n := 30
	objs := make([]Obj, n)
	for i := range objs {
		// Wide supports push the closest-entry work estimate past the
		// kernel cutoff so the budget actually shapes the fan-out.
		objs[i] = wideObj(r, int32(i), 4000, 900+r.Intn(300), 1.0/float64(n))
	}
	tau := Threshold(0.3, MutualInfo(objs), n)
	cfg := Config{B: 4, Threshold: tau}

	ser := NewTreeSerial(cfg)
	for _, o := range objs {
		ser.Insert(o)
	}
	serLeaves := ser.Leaves()
	wantAssign := AssignCtx(context.Background(), serLeaves, objs)

	for _, budget := range []int{1, 2, 4, 8} {
		ctx := exec.WithWorkers(context.Background(), budget)
		tr := NewTreeCtx(ctx, cfg)
		for _, o := range objs {
			tr.Insert(o)
		}
		leaves := tr.Leaves()
		if len(leaves) != len(serLeaves) {
			t.Fatalf("budget %d: %d leaves, serial has %d", budget, len(leaves), len(serLeaves))
		}
		for i := range leaves {
			if err := sameDCF(leaves[i], serLeaves[i]); err != nil {
				t.Fatalf("budget %d leaf %d: %v", budget, i, err)
			}
		}
		assign := AssignCtx(ctx, leaves, objs)
		for i := range assign {
			if assign[i] != wantAssign[i] {
				t.Fatalf("budget %d: assignment %d = %+v, serial %+v", budget, i, assign[i], wantAssign[i])
			}
		}
	}
}
