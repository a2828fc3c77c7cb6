package relation

import (
	"context"
	"strconv"
	"sync/atomic"
	"testing"

	"structmine/internal/exec"
	"structmine/internal/exec/exectest"
)

// Regression: ScanStripes sized its per-worker page buffers — and its
// callers their accumulators, through ScanWorkers — from one read of
// the live budget and fanned out on another; a grant rebalanced in
// between handed the callback a worker index past both. A scan now runs
// at the width it was planned at.
func TestFanoutSurvivesRebalance(t *testing.T) {
	b := NewBuilder("wide", []string{"A", "B"})
	n := 10*DefaultPageRows - 7
	for i := 0; i < n; i++ {
		b.MustAdd(strconv.Itoa(i%97), strconv.Itoa(i%13))
	}
	c := AsColumns(b.Relation())
	attrs := AllAttrs(c)
	var want int64
	err := ScanStripes(exec.WithWorkers(context.Background(), 1), c, attrs, func(w, p int, cols [][]int32) error {
		for _, col := range cols {
			for _, v := range col {
				want += int64(v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := exectest.RebalancingContext(t)
	for i := 0; i < 60; i++ {
		// Per-worker accumulators, sized by the plan the scan runs at.
		scan := PlanScan(ctx, c, attrs)
		sums := make([]int64, scan.Workers())
		err := scan.Run(func(w, p int, cols [][]int32) error {
			for _, col := range cols {
				for _, v := range col {
					sums[w] += int64(v)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var got int64
		for _, s := range sums {
			got += s
		}
		if got != want {
			t.Fatalf("scan %d: planned scan summed %d, unrebalanced %d", i, got, want)
		}
		// The one-call form: the page buffers are ScanStripes' own state.
		var total atomic.Int64
		err = ScanStripes(ctx, c, attrs, func(w, p int, cols [][]int32) error {
			var page int64
			for _, col := range cols {
				for _, v := range col {
					page += int64(v)
				}
			}
			total.Add(page)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if total.Load() != want {
			t.Fatalf("scan %d: ScanStripes summed %d, unrebalanced %d", i, total.Load(), want)
		}
	}
}
