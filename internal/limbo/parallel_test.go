package limbo

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"structmine/internal/it"
)

// forceParallel raises GOMAXPROCS so fan-outs take the concurrent path
// even on single-CPU machines (same trick as the ib package's parallel
// tests).
func forceParallel() func() {
	old := runtime.GOMAXPROCS(4)
	return func() { runtime.GOMAXPROCS(old) }
}

// wideObj builds an object with support distinct values drawn from
// [0, domain), uniform over them, of mass w.
func wideObj(r *rand.Rand, id int32, domain, support int, w float64) Obj {
	seen := make(map[int32]bool, support)
	vals := make([]int32, 0, support)
	for len(vals) < support {
		v := int32(r.Intn(domain))
		if !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	o := Obj{ID: id, W: w, Cond: it.Uniform(vals)}
	return o
}

// Property: building a tree through the normal insert path (recorded
// probes, the tree-owned distance buffer) yields leaves bit-identical to
// the retained serial reference path, for the same inputs in the same
// order.
func TestPropInsertMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(30)
		objs := make([]Obj, n)
		for i := range objs {
			objs[i] = wideObj(r, int32(i), 4000, 900+r.Intn(300), 1.0/float64(n))
		}
		tau := Threshold(0.3, MutualInfo(objs), n)
		cfg := Config{B: 4, Threshold: tau}
		tree := NewTreeCtx(context.Background(), cfg)
		ser := NewTreeSerial(cfg)
		for _, o := range objs {
			tree.Insert(o)
			ser.Insert(o)
		}
		if err := tree.Validate(); err != nil {
			t.Logf("seed %d: tree invalid: %v", seed, err)
			return false
		}
		pl, sl := tree.Leaves(), ser.Leaves()
		if len(pl) != len(sl) {
			t.Logf("seed %d: %d vs %d leaves", seed, len(pl), len(sl))
			return false
		}
		for i := range pl {
			if err := sameDCF(pl[i], sl[i]); err != nil {
				t.Logf("seed %d leaf %d: %v", seed, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
