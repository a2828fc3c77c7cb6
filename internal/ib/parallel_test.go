package ib

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"structmine/internal/it"
)

// forceParallel raises GOMAXPROCS so par.For takes the concurrent path
// even on single-CPU machines; the returned func restores the old value.
func forceParallel() func() {
	old := runtime.GOMAXPROCS(4)
	return func() { runtime.GOMAXPROCS(old) }
}

// tiedObjects builds q objects in which runs of objects share an
// identical conditional and equal mass, so many candidate pairs have
// exactly equal (often zero) δI — exercising the (loss, a, b) tie-break
// that keeps parallel and serial runs identical.
func tiedObjects(r *rand.Rand, q, dims int) []Object {
	objs := make([]Object, 0, q)
	for len(objs) < q {
		n := 1 + r.Intn(3)
		es := make([]it.Entry, 0, n)
		seen := map[int32]bool{}
		for len(es) < n {
			ix := int32(r.Intn(dims))
			if seen[ix] {
				continue
			}
			seen[ix] = true
			es = append(es, it.Entry{Idx: ix, P: r.Float64() + 0.05})
		}
		cond := it.NewVec(es).Normalize()
		dup := 1 + r.Intn(3) // 1..3 objects with this exact conditional
		for d := 0; d < dup && len(objs) < q; d++ {
			objs = append(objs, Object{Label: "t", P: 1, Cond: cond})
		}
	}
	for i := range objs {
		objs[i].P = 1 / float64(q)
	}
	return objs
}

func assertSameResult(t *testing.T, seed int64, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Merges, want.Merges) {
		n := len(got.Merges)
		if len(want.Merges) < n {
			n = len(want.Merges)
		}
		for i := 0; i < n; i++ {
			if got.Merges[i] != want.Merges[i] {
				t.Fatalf("seed %d: merge %d differs: parallel %+v serial %+v",
					seed, i, got.Merges[i], want.Merges[i])
			}
		}
		t.Fatalf("seed %d: merge counts differ: parallel %d serial %d",
			seed, len(got.Merges), len(want.Merges))
	}
	if !reflect.DeepEqual(got.parent, want.parent) {
		t.Fatalf("seed %d: parent arrays differ", seed)
	}
}

// TestPropParallelMatchesSerial is the determinism property test of the
// tentpole: on ≥20 seeded random object sets — varying q across the
// serial cutoff, support size, and duplicate-loss ties — the parallel
// engine must produce a merge sequence bit-identical to the retained
// serial reference.
func TestPropParallelMatchesSerial(t *testing.T) {
	defer forceParallel()()
	type cse struct {
		q, dims int
		tied    bool
	}
	cases := []cse{
		{2, 4, false}, {3, 4, false}, {5, 6, true}, {8, 10, false},
		{13, 8, true}, {21, 12, false}, {34, 16, true}, {48, 20, false},
		// q ≥ 32 crosses the aib_pairs cutoff for the initial pair
		// generation,
		// q ≥ 96 lets heap compaction fire mid-run.
		{96, 24, false}, {96, 24, true}, {128, 32, false}, {128, 16, true},
	}
	seed := int64(1)
	for _, c := range cases {
		for rep := 0; rep < 2; rep++ { // 24 seeded inputs total
			r := rand.New(rand.NewSource(seed))
			var objs []Object
			if c.tied {
				objs = tiedObjects(r, c.q, c.dims)
			} else {
				objs = randomObjects(r, c.q, c.dims)
			}
			k := 1
			if rep == 1 {
				k = 1 + r.Intn(c.q) // also exercise early stopping
			}
			par := AgglomerateKCtx(context.Background(), objs, k)
			ser := AgglomerateKSerial(objs, k)
			assertSameResult(t, seed, par, ser)
			seed++
		}
	}
}

// TestHeapCompaction verifies that the bounded-memory rebuild fires on a
// run large enough to accumulate stale entries, strictly shrinks the
// queue, and does not perturb the merge sequence.
func TestHeapCompaction(t *testing.T) {
	defer forceParallel()()
	type compaction struct{ before, after int }
	var seen []compaction
	testHookCompact = func(before, after int) {
		seen = append(seen, compaction{before, after})
	}
	defer func() { testHookCompact = nil }()

	r := rand.New(rand.NewSource(42))
	objs := randomObjects(r, 160, 24)
	res := AgglomerateKCtx(context.Background(), objs, 1)

	if len(seen) == 0 {
		t.Fatal("no compaction fired on a q=160 run")
	}
	for i, c := range seen {
		if c.after >= c.before {
			t.Fatalf("compaction %d did not shrink the heap: %d -> %d", i, c.before, c.after)
		}
		// Post-compaction the queue holds exactly the live candidates,
		// which never exceed q(q-1)/2.
		if c.after > 160*159/2 {
			t.Fatalf("compaction %d left %d entries, more than all possible pairs", i, c.after)
		}
	}
	testHookCompact = nil
	assertSameResult(t, 42, res, AgglomerateSerial(objs))
}

// TestMembersMatchesRecursiveReference pins the iterative Members walk to
// the semantics of the recursive version it replaced, including the
// left-to-right leaf order.
func TestMembersMatchesRecursiveReference(t *testing.T) {
	var recursive func(r *Result, node int) []int
	recursive = func(r *Result, node int) []int {
		if node < len(r.Objects) {
			return []int{node}
		}
		m := r.Merges[node-len(r.Objects)]
		return append(recursive(r, m.Left), recursive(r, m.Right)...)
	}
	r := rand.New(rand.NewSource(7))
	res := AgglomerateKCtx(context.Background(), randomObjects(r, 40, 12), 1)
	for node := 0; node < 2*40-1; node++ {
		got := res.Members(node)
		want := recursive(res, node)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Members(%d) = %v, recursive reference %v", node, got, want)
		}
	}
}

// TestSerialReferencePaperExample keeps the retained oracle honest on the
// paper's worked example, mirroring TestAgglomeratePaperExample.
func TestSerialReferencePaperExample(t *testing.T) {
	res := AgglomerateSerial(paperAttrs())
	if len(res.Merges) != 2 {
		t.Fatalf("want 2 merges, got %d", len(res.Merges))
	}
	if m := res.Merges[0]; !(m.Left == 1 && m.Right == 2) {
		t.Fatalf("first merge = (%d,%d), want (1,2)", m.Left, m.Right)
	}
	if res := AgglomerateKSerial(paperAttrs(), 2); len(res.Merges) != 1 {
		t.Fatalf("k=2 should stop after one merge, got %d", len(res.Merges))
	}
	if res := AgglomerateKSerial(nil, 1); len(res.Merges) != 0 {
		t.Fatal("empty input should produce no merges")
	}
}
