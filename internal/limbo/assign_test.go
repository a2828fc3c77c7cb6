package limbo

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"structmine/internal/exec"
	"structmine/internal/it"
)

// assignCase is one seeded Phase 3 input of TestPropAssignMatchesSerial.
// parallel marks the inputs meant to exercise the fan-out: the test
// fails if their work estimate no longer clears the limbo_assign cutoff.
type assignCase struct {
	name     string
	reps     []*DCF
	objs     []Obj
	parallel bool
}

// sparseObjs draws value-like objects: equal mass, a handful of
// coordinates out of a large domain, so almost no two objects overlap.
func sparseObjs(r *rand.Rand, n, domain, support int) []Obj {
	objs := make([]Obj, n)
	for i := range objs {
		objs[i] = wideObj(r, int32(i), domain, 1+r.Intn(support), 1/float64(n))
	}
	return objs
}

// smallDomainRows draws tuple rows whose attributes have few distinct
// values, so every tuple shares coordinates with most representatives.
func smallDomainRows(r *rand.Rand, n, m, perAttr int) [][]int32 {
	rows := make([][]int32, n)
	for i := range rows {
		rows[i] = make([]int32, m)
		for a := range rows[i] {
			rows[i][a] = int32(a*perAttr + r.Intn(perAttr))
		}
	}
	return rows
}

// unitObjs builds unit-weight objects over random small-domain rows.
func unitObjs(n, m, domain int, seed int64) []Obj {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]Obj, n)
	for i := range objs {
		row := make([]int32, m)
		for a := range row {
			row[a] = int32(a*domain + rng.Intn(domain))
		}
		objs[i] = Obj{ID: int32(i), W: 1, Cond: it.Uniform(row)}
	}
	return objs
}

func buildTree(ctx context.Context, cfg Config, objs []Obj) *Tree {
	t := NewTreeCtx(ctx, cfg)
	for _, o := range objs {
		t.Insert(o)
	}
	return t
}

func assignCases(t *testing.T, seed int64) []assignCase {
	r := rand.New(rand.NewSource(seed))
	var cases []assignCase

	// Value clustering: sparse objects against every φ = 0 leaf.
	sparse := sparseObjs(r, 900, 4000, 8)
	cases = append(cases, assignCase{"sparse-vs-leaves", BuildTreeCtx(context.Background(), sparse, 0, 4).Leaves(), sparse, true})

	// Tuple clustering: dense objects against merged cluster representatives.
	dense := tupleObjs(smallDomainRows(r, 700, 6, 5))
	leaves := BuildTreeCtx(context.Background(), dense, 0.2, 4).Leaves()
	k := 1 + len(leaves)/3
	clusters, err := Phase2Ctx(context.Background(), leaves, k).ClustersAt(k)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, assignCase{"dense-vs-cluster-reps", RepsFromClusters(leaves, clusters), dense, true})

	// Duplicate representatives and one mass throughout: every loss ties
	// across the copies and every untouched candidate shares one W-group,
	// so only the index tie-break separates them. A NaN-mass
	// representative must never be chosen.
	few := tupleObjs(smallDomainRows(r, 60, 3, 4))
	var dup []*DCF
	for i := 0; i < 3; i++ {
		for _, o := range few[:8] {
			dup = append(dup, NewDCF(o))
		}
	}
	dup = append(dup, NewDCF(Obj{W: math.NaN(), Cond: few[0].Cond}))
	cases = append(cases, assignCase{"duplicate-reps-equal-w", dup, few, false})

	// One W-group whose every member overlaps the object: the group has
	// no untouched stand-in. A massless object scores exactly zero
	// everywhere, so an untouched representative must win on index alone
	// against the touched one that scored first.
	var overlap []*DCF
	for i := int32(0); i < 6; i++ {
		overlap = append(overlap, NewDCF(Obj{ID: i, W: 0.125, Cond: it.Uniform([]int32{0, 10 + i})}))
	}
	cases = append(cases, assignCase{"group-fully-touched", overlap, []Obj{
		{W: 0.125, Cond: it.Uniform([]int32{0})},
		{W: 0.125, Cond: it.Uniform([]int32{0, 12})},
		{W: 0.25, Cond: it.Uniform([]int32{13})},
		{W: 0, Cond: it.Uniform([]int32{12})},
	}, false})

	// Representatives carrying a tail tier and a rank index.
	wide := make([]Obj, 40)
	for i := range wide {
		wide[i] = wideObj(r, int32(i), 4000, 900+r.Intn(300), 1.0/40)
	}
	var tiered []*DCF
	for i := 0; i < len(wide); i += 4 {
		d := NewDCF(wide[i])
		d.AbsorbObj(wide[i+1])                       // consolidates: main ≥ 512 builds the rank
		d.AbsorbObj(wideObj(r, 0, 4000, 20, 1.0/40)) // a few new coordinates stay in the tail
		d.AbsorbObj(Obj{W: 1.0 / 40, Cond: it.Uniform([]int32{5000 + int32(i)})})
		tiered = append(tiered, d)
	}
	if d := tiered[0]; d.rank == nil || len(d.tidx) == 0 {
		t.Fatalf("tiered reps lost their shape: rank=%v tail=%d", d.rank != nil, len(d.tidx))
	}
	cases = append(cases, assignCase{"tail-and-rank-reps", tiered, wide, true})

	// A float tree's leaves, and a count tree's leaves (float DCFs on the
	// heap) over the same rows at p(t) = 1/300.
	unit := unitObjs(300, 5, 12, seed)
	floated := buildTree(context.Background(), Config{B: 4, MaxLeafEntries: 40}, unit).Leaves()
	tuples := make([]Obj, len(unit))
	for i, o := range unit {
		o.W = 1.0 / 300
		tuples[i] = o
	}
	counted := StreamTreeCtx(context.Background(), Config{B: 4, MaxLeafEntries: 40}, tuples).Leaves()
	cases = append(cases, assignCase{"float-tree-leaves", floated, unit, false},
		assignCase{"count-tree-leaves", counted, tuples, false})

	// Objects at the edges of the index: no coordinates at all, and
	// coordinates no representative carries — below the smallest indexed
	// one, between, and above the largest, which is math.MaxInt32 (the
	// build must not allocate by coordinate id).
	edgeReps := []*DCF{
		NewDCF(Obj{W: 0.5, Cond: it.Uniform([]int32{100, 200})}),
		NewDCF(Obj{ID: 1, W: 0.25, Cond: it.Uniform([]int32{200, math.MaxInt32 - 1})}),
		NewDCF(Obj{ID: 2, W: 0.25, Cond: it.Uniform([]int32{300, math.MaxInt32})}),
	}
	cases = append(cases, assignCase{"edge-coordinates", edgeReps, []Obj{
		{W: 0.1},
		{W: 0.1, Cond: it.Uniform([]int32{1, 2})},
		{W: 0.1, Cond: it.Uniform([]int32{1, 150, 250, 400})},
		{W: 0.1, Cond: it.Uniform([]int32{math.MaxInt32 - 2})},
		{W: 0.1, Cond: it.Uniform([]int32{1, 200, math.MaxInt32})},
		{W: 0.1, Cond: it.Uniform([]int32{math.MaxInt32 - 1, math.MaxInt32})},
	}, false})

	cases = append(cases, assignCase{"empty-reps", nil, few, false})
	return cases
}

// clearsCutoff reports whether AssignCtx fans the input out at a budget
// of four: the estimate it hands exec.For, recomputed here.
func clearsCutoff(reps []*DCF, objs []Obj) bool {
	ctx := exec.WithWorkers(context.Background(), 4)
	return exec.Plan(ctx, exec.LIMBOAssign, len(objs), newRepIndex(reps).work(objs)).Workers() > 1
}

// Property: the term-at-a-time scan reproduces the pairwise scan it
// replaced bit for bit — same representative, same loss bits — on every
// shape of input and under every worker budget. Each loss is also
// checked against equation (3), (w₁+w₂)·JS_π, recomputed from the
// normalized conditionals independently of the DCF code.
func TestPropAssignMatchesSerial(t *testing.T) {
	defer forceParallel()()
	for seed := int64(1); seed <= 2; seed++ {
		for _, c := range assignCases(t, seed) {
			if c.parallel && !clearsCutoff(c.reps, c.objs) {
				t.Errorf("seed %d %s: input no longer clears the limbo_assign cutoff; the parallel scan is not exercised", seed, c.name)
			}
			want := assignSerial(c.reps, c.objs)
			for _, budget := range []int{1, 2, 4, 8} {
				got := AssignCtx(exec.WithWorkers(context.Background(), budget), c.reps, c.objs)
				for i := range want {
					if got[i].Cluster != want[i].Cluster || math.Float64bits(got[i].Loss) != math.Float64bits(want[i].Loss) {
						t.Fatalf("seed %d %s budget %d object %d: got %+v, serial %+v", seed, c.name, budget, i, got[i], want[i])
					}
				}
			}
			for i, a := range want {
				if len(c.reps) == 0 {
					if a.Cluster != -1 || !math.IsInf(a.Loss, 1) {
						t.Fatalf("seed %d %s object %d: %+v with no representatives", seed, c.name, i, a)
					}
					continue
				}
				rep, o := c.reps[a.Cluster], c.objs[i]
				if len(o.Cond) == 0 {
					continue // no distribution: equation (3) is not defined
				}
				if direct := it.DeltaI(o.W, o.Cond, rep.W, rep.Cond()); math.Abs(a.Loss-direct) > 1e-12 {
					t.Fatalf("seed %d %s object %d: loss %v, equation (3) gives %v", seed, c.name, i, a.Loss, direct)
				}
			}
		}
	}
}

// The inputs of the older Phase 3 tests that mean to run the parallel
// scan (TestAssignParallelMatchesSequential, TestPropBudgetSweepMatchesSerial)
// must still clear the cutoff now that its unit is posting terms.
func TestAssignParallelInputsFanOut(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	reps := make([]*DCF, 8)
	for i := range reps {
		reps[i] = NewDCF(randObj(r, int32(i), 64, 6))
		reps[i].AbsorbObj(randObj(r, int32(100+i), 64, 6))
	}
	objs := make([]Obj, 1500)
	for i := range objs {
		objs[i] = randObj(r, int32(i), 64, 5)
	}
	if !clearsCutoff(reps, objs) {
		t.Error("TestAssignParallelMatchesSequential's input runs serially")
	}

	r = rand.New(rand.NewSource(23))
	objs = make([]Obj, 30)
	for i := range objs {
		objs[i] = wideObj(r, int32(i), 4000, 900+r.Intn(300), 1.0/30)
	}
	tree := NewTreeSerial(Config{B: 4, Threshold: Threshold(0.3, MutualInfo(objs), len(objs))})
	for _, o := range objs {
		tree.Insert(o)
	}
	if !clearsCutoff(tree.Leaves(), objs) {
		t.Error("TestPropBudgetSweepMatchesSerial's input runs serially")
	}
}

// The index is sized by postings and distinct coordinates, never by the
// largest coordinate id.
func TestAssignIndexNotSizedByCoordinateID(t *testing.T) {
	reps := []*DCF{
		NewDCF(Obj{W: 0.5, Cond: it.Uniform([]int32{0, math.MaxInt32})}),
		NewDCF(Obj{ID: 1, W: 0.5, Cond: it.Uniform([]int32{math.MaxInt32 - 1})}),
	}
	objs := []Obj{{W: 1, Cond: it.Uniform([]int32{math.MaxInt32})}}
	ctx := exec.WithWorkers(context.Background(), 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := AssignCtx(ctx, reps, objs)
	runtime.ReadMemStats(&after)
	if got[0].Cluster != 0 {
		t.Fatalf("assignment %+v, want representative 0", got[0])
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("AssignCtx allocated %d bytes for two representatives", alloc)
	}
}
