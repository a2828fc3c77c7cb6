// Integration test of the execution engine against the real kernels:
// many concurrent jobs, each under its own scheduler grant, share the
// process arena pool while running AIB agglomeration, LIMBO tree builds
// and TANE lattice searches. Results must be bit-identical to the
// serial references no matter how the budgets land. Run with -race —
// this is the suite that catches pooled-scratch aliasing between jobs.
package exec_test

import (
	"context"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"structmine/internal/exec"
	"structmine/internal/fd"
	"structmine/internal/ib"
	"structmine/internal/it"
	"structmine/internal/limbo"
	"structmine/internal/relation"
)

func randomRelation(r *rand.Rand, n, m, domain int) *relation.Relation {
	attrs := make([]string, m)
	for i := range attrs {
		attrs[i] = "A" + strconv.Itoa(i)
	}
	b := relation.NewBuilder("rand", attrs)
	row := make([]string, m)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = strconv.Itoa(r.Intn(domain))
		}
		if err := b.Add(row); err != nil {
			panic(err)
		}
	}
	return b.Relation()
}

func randomIBObjects(r *rand.Rand, q, domain, support int) []ib.Object {
	objs := make([]ib.Object, q)
	for i := range objs {
		objs[i] = ib.Object{
			Label: "o" + strconv.Itoa(i),
			P:     1 / float64(q),
			Cond:  it.Uniform(randomSupport(r, domain, support)),
		}
	}
	return objs
}

func randomLimboObjects(r *rand.Rand, n, domain, support int) []limbo.Obj {
	objs := make([]limbo.Obj, n)
	for i := range objs {
		objs[i] = limbo.Obj{
			ID: int32(i), W: 1 / float64(n),
			Cond: it.Uniform(randomSupport(r, domain, support)),
		}
	}
	return objs
}

func randomSupport(r *rand.Rand, domain, support int) []int32 {
	seen := make(map[int32]bool, support)
	vals := make([]int32, 0, support)
	for len(vals) < support {
		v := int32(r.Intn(domain))
		if !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	return vals
}

// limboRun builds the Phase 1 tree and Phase 3 assignment under ctx and
// returns the observable outcome: leaf count plus every object's
// (cluster, loss) pair. All pooled-arena reads happen before the
// caller's grant release.
func limboRun(ctx context.Context, objs []limbo.Obj) (int, []limbo.Assignment) {
	tr := limbo.BuildTreeCtx(ctx, objs, 0.05, 6)
	leaves := tr.Leaves()
	return len(leaves), limbo.AssignCtx(ctx, leaves, objs)
}

// Jobs of three different kernels run concurrently, each under its own
// grant from one shared scheduler, checking scratch out of the shared
// pool. Every job's result must equal the serial reference bit for bit.
func TestConcurrentGrantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rel := randomRelation(rng, 300, 5, 3)
	ibObjs := randomIBObjects(rng, 40, 64, 8)
	lmObjs := randomLimboObjects(rng, 150, 64, 12)

	wantFDs, err := fd.TANESerial(rel)
	if err != nil {
		t.Fatal(err)
	}
	wantMerges := ib.AgglomerateKSerial(ibObjs, 1).Merges
	wantLeaves, wantAssign := limboRun(context.Background(), lmObjs)

	s := exec.NewScheduler(4)
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(kind int) {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				g := s.Acquire()
				ctx := exec.WithGrant(context.Background(), g)
				switch kind % 3 {
				case 0:
					got, err := fd.TANEColumnsCtx(ctx, fd.NewSets(ctx, relation.AsColumns(rel)))
					if err != nil {
						t.Errorf("TANEColumnsCtx: %v", err)
					} else if !reflect.DeepEqual(got, wantFDs) {
						t.Errorf("TANE under grant diverged from serial reference")
					}
				case 1:
					got := ib.AgglomerateKCtx(ctx, ibObjs, 1).Merges
					if !reflect.DeepEqual(got, wantMerges) {
						t.Errorf("AIB under grant diverged from serial reference")
					}
				case 2:
					leaves, assign := limboRun(ctx, lmObjs)
					if leaves != wantLeaves || !reflect.DeepEqual(assign, wantAssign) {
						t.Errorf("LIMBO under grant diverged: %d leaves want %d", leaves, wantLeaves)
					}
				}
				g.Release()
			}
		}(i)
	}
	wg.Wait()
}

// The same kernels swept across fixed budgets: any budget in
// {1, 2, 4, 8} must reproduce the serial reference exactly (the
// determinism contract budgets are only allowed to repartition index
// ranges, never change per-index arithmetic).
func TestBudgetSweepBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel := randomRelation(rng, 200, 5, 3)
	ibObjs := randomIBObjects(rng, 30, 48, 6)
	lmObjs := randomLimboObjects(rng, 120, 48, 10)

	wantFDs, err := fd.TANESerial(rel)
	if err != nil {
		t.Fatal(err)
	}
	wantMerges := ib.AgglomerateKSerial(ibObjs, 1).Merges
	wantLeaves, wantAssign := limboRun(context.Background(), lmObjs)

	for _, budget := range []int{1, 2, 4, 8} {
		ctx := exec.WithWorkers(context.Background(), budget)
		if got, err := fd.TANEColumnsCtx(ctx, fd.NewSets(ctx, relation.AsColumns(rel))); err != nil || !reflect.DeepEqual(got, wantFDs) {
			t.Errorf("budget %d: TANE diverged (err=%v)", budget, err)
		}
		if got := ib.AgglomerateKCtx(ctx, ibObjs, 1).Merges; !reflect.DeepEqual(got, wantMerges) {
			t.Errorf("budget %d: AIB merge sequence diverged", budget)
		}
		if leaves, assign := limboRun(ctx, lmObjs); leaves != wantLeaves || !reflect.DeepEqual(assign, wantAssign) {
			t.Errorf("budget %d: LIMBO outcome diverged", budget)
		}
	}
}
