package limbo

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"structmine/internal/it"
)

// tupleObjs builds tuple objects (p(t)=1/n, p(V|t)=1/m on the row's
// values) from rows of small-integer "value ids".
func tupleObjs(rows [][]int32) []Obj {
	n := len(rows)
	objs := make([]Obj, n)
	for i, row := range rows {
		objs[i] = Obj{ID: int32(i), W: 1.0 / float64(n), Cond: it.Uniform(row)}
	}
	return objs
}

func TestTreeZeroThresholdMergesOnlyIdentical(t *testing.T) {
	// Three distinct rows, two of them duplicated.
	rows := [][]int32{
		{0, 10, 20}, {1, 11, 21}, {0, 10, 20}, {2, 12, 22}, {1, 11, 21}, {0, 10, 20},
	}
	tree := BuildTreeCtx(context.Background(), tupleObjs(rows), 0.0, 4)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tree.LeafCount(); got != 3 {
		t.Fatalf("leaf entries = %d, want 3 (identical rows merge at φ=0)", got)
	}
	// The duplicated row must have a leaf with N=3.
	counts := map[int]int{}
	for _, d := range tree.Leaves() {
		counts[d.N]++
	}
	if counts[3] != 1 || counts[2] != 1 || counts[1] != 1 {
		t.Fatalf("leaf sizes wrong: %v", counts)
	}
}

func TestTreeLargeThresholdMergesEverything(t *testing.T) {
	rows := [][]int32{{0, 10}, {1, 11}, {2, 12}, {3, 13}, {4, 14}}
	objs := tupleObjs(rows)
	tree := NewTreeCtx(context.Background(), Config{B: 4, Threshold: 1e9})
	for _, o := range objs {
		tree.Insert(o)
	}
	if tree.LeafCount() != 1 {
		t.Fatalf("leaf entries = %d, want 1", tree.LeafCount())
	}
	leaf := tree.Leaves()[0]
	if leaf.N != 5 || !almostEqual(leaf.W, 1.0, 1e-9) {
		t.Fatalf("merged leaf: N=%d W=%v", leaf.N, leaf.W)
	}
}

func TestTreeSplitsKeepInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var objs []Obj
	for i := 0; i < 200; i++ {
		objs = append(objs, randObj(r, int32(i), 64, 6))
	}
	tree := NewTreeCtx(context.Background(), Config{B: 3, Threshold: 0}) // force many leaves, deep tree
	total := 0.0
	for _, o := range objs {
		tree.Insert(o)
		total += o.W
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	mass := 0.0
	for _, d := range tree.Leaves() {
		mass += d.W
	}
	if !almostEqual(mass, total, 1e-6) {
		t.Fatalf("mass %v escaped, want %v", mass, total)
	}
	if tree.Inserted() != 200 {
		t.Fatalf("inserted=%d", tree.Inserted())
	}
}

func TestTreeMaxLeavesRebuilds(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var objs []Obj
	for i := 0; i < 300; i++ {
		objs = append(objs, randObj(r, int32(i), 48, 5))
	}
	tree := NewTreeCtx(context.Background(), Config{B: 4, MaxLeafEntries: 40}) // leaf-bounded Phase 1
	for _, o := range objs {
		tree.Insert(o)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tree.LeafCount(); got > 40 {
		t.Fatalf("leaf entries = %d, want ≤ 40", got)
	}
	if tree.Rebuilds() == 0 {
		t.Fatal("expected at least one adaptive rebuild")
	}
	if tree.Threshold() <= 0 {
		t.Fatal("threshold should have grown")
	}
}

func TestThresholdFormula(t *testing.T) {
	if got := Threshold(0.5, 10.0, 100); !almostEqual(got, 0.05, 1e-12) {
		t.Fatalf("τ = %v", got)
	}
	if got := Threshold(0.5, 10.0, 0); got != 0 {
		t.Fatalf("τ with no objects = %v", got)
	}
}

func TestMutualInfoOfObjects(t *testing.T) {
	// Two tuples with disjoint values: I(T;V) = 1 bit.
	objs := tupleObjs([][]int32{{0, 1}, {2, 3}})
	if mi := MutualInfo(objs); !almostEqual(mi, 1.0, 1e-12) {
		t.Fatalf("I = %v, want 1", mi)
	}
	// Identical tuples: I = 0.
	objs = tupleObjs([][]int32{{0, 1}, {0, 1}})
	if mi := MutualInfo(objs); !almostEqual(mi, 0, 1e-12) {
		t.Fatalf("I = %v, want 0", mi)
	}
}

func TestPhase2AndPhase3EndToEnd(t *testing.T) {
	// Two well-separated groups of near-duplicate tuples.
	rows := [][]int32{
		{0, 10, 20}, {0, 10, 20}, {0, 10, 21},
		{5, 15, 25}, {5, 15, 25}, {5, 15, 26},
	}
	objs := tupleObjs(rows)
	tree := BuildTreeCtx(context.Background(), objs, 0.0, 4)
	res := Phase2Ctx(context.Background(), tree.Leaves(), 2)
	clusters, err := res.ClustersAt(2)
	if err != nil {
		t.Fatal(err)
	}
	reps := RepsFromClusters(tree.Leaves(), clusters)
	assign := AssignCtx(context.Background(), reps, objs)
	// Tuples 0-2 must share a cluster, 3-5 the other.
	if assign[0].Cluster != assign[1].Cluster || assign[1].Cluster != assign[2].Cluster {
		t.Fatalf("group 1 split: %+v", assign)
	}
	if assign[3].Cluster != assign[4].Cluster || assign[4].Cluster != assign[5].Cluster {
		t.Fatalf("group 2 split: %+v", assign)
	}
	if assign[0].Cluster == assign[3].Cluster {
		t.Fatalf("groups merged: %+v", assign)
	}
	// Exact duplicates assign at zero loss.
	if !almostEqual(assign[0].Loss, assign[1].Loss, 1e-12) {
		t.Fatalf("duplicate losses differ: %+v", assign)
	}
}

func TestMutualInfoOfAssignmentBounds(t *testing.T) {
	rows := [][]int32{{0, 10}, {0, 10}, {1, 11}, {2, 12}}
	objs := tupleObjs(rows)
	full := MutualInfo(objs)
	tree := BuildTreeCtx(context.Background(), objs, 0.0, 4)
	res := Phase2Ctx(context.Background(), tree.Leaves(), 2)
	clusters, err := res.ClustersAt(2)
	if err != nil {
		t.Fatal(err)
	}
	reps := RepsFromClusters(tree.Leaves(), clusters)
	assign := AssignCtx(context.Background(), reps, objs)
	got := MutualInfoOfAssignment(objs, assign, 2)
	if got > full+1e-9 {
		t.Fatalf("I(C;T)=%v exceeds I(V;T)=%v", got, full)
	}
	if got < 0 {
		t.Fatalf("negative mutual information %v", got)
	}
}

func TestAssignEmptyReps(t *testing.T) {
	objs := tupleObjs([][]int32{{0, 1}})
	assign := AssignCtx(context.Background(), nil, objs)
	if assign[0].Cluster != -1 {
		t.Fatalf("no reps should yield cluster -1, got %+v", assign[0])
	}
}

// Property: with φ=0 every leaf is pure (it only ever absorbed identical
// objects), the leaf count is at least the number of distinct rows
// (greedy routing may split identical rows across subtrees — Phases 2
// and 3 repair that), and Phase 2 reaches the distinct count at zero
// cumulative loss.
func TestPropZeroPhiLeavesArePure(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		distinct := 1 + r.Intn(6)
		pool := make([][]int32, distinct)
		for i := range pool {
			pool[i] = []int32{int32(3 * i), int32(3*i + 1), int32(100 + i)}
		}
		rows := make([][]int32, n)
		used := map[int]bool{}
		for i := range rows {
			k := r.Intn(distinct)
			used[k] = true
			rows[i] = pool[k]
		}
		tree := BuildTreeCtx(context.Background(), tupleObjs(rows), 0.0, 4)
		if err := tree.Validate(); err != nil {
			return false
		}
		if tree.LeafCount() < len(used) {
			return false
		}
		// Purity: a leaf of N identical tuple-objects has exactly the
		// 3-coordinate support of its row, uniform conditional.
		for _, d := range tree.Leaves() {
			if d.SupportLen() != 3 {
				return false
			}
			for _, ix := range d.Support() {
				if math.Abs(d.At(ix)-d.W/3) > 1e-9 {
					return false
				}
			}
		}
		// Phase 2 merges duplicate-row leaves at zero loss down to the
		// distinct count.
		res := Phase2Ctx(context.Background(), tree.Leaves(), len(used))
		for _, m := range res.Merges {
			if m.Loss > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: total leaf mass and object count are conserved for any φ.
func TestPropMassConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(60)
		objs := make([]Obj, n)
		for i := range objs {
			objs[i] = randObj(r, int32(i), 32, 5)
		}
		phi := r.Float64() * 2
		tree := BuildTreeCtx(context.Background(), objs, phi, 2+r.Intn(4))
		if err := tree.Validate(); err != nil {
			return false
		}
		mass, count := 0.0, 0
		for _, d := range tree.Leaves() {
			mass += d.W
			count += d.N
		}
		want := 0.0
		for _, o := range objs {
			want += o.W
		}
		return almostEqual(mass, want, 1e-6) && count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAssignParallelMatchesSequential exercises the parallel Phase 3
// path (objects × reps above the cutoff) and verifies each object truly
// received its argmin representative.
func TestAssignParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	reps := make([]*DCF, 8)
	for i := range reps {
		reps[i] = NewDCF(randObj(r, int32(i), 64, 6))
		reps[i].AbsorbObj(randObj(r, int32(100+i), 64, 6))
	}
	objs := make([]Obj, 1500) // 1500×8 = 12000 > cutoff
	for i := range objs {
		objs[i] = randObj(r, int32(i), 64, 5)
	}
	assign := AssignCtx(context.Background(), reps, objs)
	for i := 0; i < len(objs); i += 97 {
		best, bestDist := -1, math.Inf(1)
		for ri, rep := range reps {
			if d := rep.DeltaIObj(objs[i]); d < bestDist {
				best, bestDist = ri, d
			}
		}
		if assign[i].Cluster != best || math.Abs(assign[i].Loss-bestDist) > 1e-12 {
			t.Fatalf("object %d: got (%d, %v), want (%d, %v)",
				i, assign[i].Cluster, assign[i].Loss, best, bestDist)
		}
	}
}
