package fd

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"structmine/internal/exec"
	"structmine/internal/obs"
	"structmine/internal/relation"
)

// forceParallel raises GOMAXPROCS so par.ForChunk takes the concurrent
// path even on single-CPU machines (the ib package's parallel tests use
// the same trick).
func forceParallel() func() {
	old := runtime.GOMAXPROCS(4)
	return func() { runtime.GOMAXPROCS(old) }
}

// samePartition compares a flat partition against the serial reference's
// slice-of-slices representation class by class, element by element.
func samePartition(p *partition, classes [][]int32) error {
	if p.numClasses() != len(classes) {
		return fmt.Errorf("numClasses = %d, want %d", p.numClasses(), len(classes))
	}
	total := 0
	for ci, want := range classes {
		got := p.class(ci)
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("class %d = %v, want %v", ci, got, want)
		}
		total += len(want)
	}
	if p.size() != total {
		return fmt.Errorf("size = %d, want %d", p.size(), total)
	}
	return nil
}

// indexPartition is the production level-1 builder over a resident
// relation: Π_{A} from the value index behind relation.AsColumns.
func indexPartition(r *relation.Relation, a int) *partition {
	p, err := singlePartitionColumns(relation.AsColumns(r), a)
	if err != nil {
		panic(err) // an in-memory relation has no failing reads
	}
	return p
}

// Property: the one-attribute refinement and the index-built level-1
// partitions reproduce the original slice-of-slices builders exactly —
// same classes, same class order, same tuple order within each class —
// on plain and fuzzed (NULLs, shared strings, runs) relations, including
// when one scratch is reused across many refinements (slot reset,
// buffer reuse) and when refinements chain (refinements of
// refinements). The level-1 partitions the class index is built from
// are shared read-only with their source and must come out untouched.
func TestPropProductMatchesSerial(t *testing.T) {
	sc := &prodScratch{ar: exec.NewArena()} // shared on purpose: reuse must not leak state
	check := func(seed int64, r *relation.Relation) bool {
		n := r.N()
		singles := make([]*partition, r.M())
		for a := 0; a < r.M(); a++ {
			singles[a] = indexPartition(r, a)
			if err := samePartition(singles[a], singlePartitionClasses(r, a)); err != nil {
				t.Logf("seed %d indexPartition(%d): %v", seed, a, err)
				return false
			}
		}
		idx := make([][]int32, len(singles))
		for a, p := range singles {
			idx[a] = classIndex(exec.NewArena(), p, n)
		}
		for a, p := range singles {
			if !partitionsEqual(p, fromClasses(singlePartitionClasses(r, a))) {
				t.Logf("seed %d: building the class index wrote into Π_%d", seed, a)
				return false
			}
		}
		cur := singles[0]
		for a := 1; a < r.M(); a++ {
			got := refine(cur, idx[a], sc)
			if !partitionsEqual(got, productSerial(cur, singles[a], n)) {
				t.Logf("seed %d refine chain at %d: diverges from productSerial", seed, a)
				return false
			}
			cur = got
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		return check(seed, randomRelation(rng, 2+rng.Intn(60), 2+rng.Intn(4), 2+rng.Intn(4))) &&
			check(seed, fuzzedRelation(rng))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// smallClassRelation builds n tuples over X and A where Π_X is mostly
// 2- and 3-tuple classes (with some singletons and larger classes for
// the slot walk) and Π_A mixes a few shared values with values unique
// to one tuple — singletons of Π_A, class index −1.
func smallClassRelation(rng *rand.Rand, n int) *relation.Relation {
	sizes := []int{1, 2, 2, 2, 3, 3, 3, 3, 4, 6}
	xs := make([]int, 0, n)
	for g := 0; len(xs) < n; g++ {
		for k := sizes[rng.Intn(len(sizes))]; k > 0 && len(xs) < n; k-- {
			xs = append(xs, g)
		}
	}
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	shared := 1 + rng.Intn(3)
	b := relation.NewBuilder("small", []string{"X", "A"})
	for t, x := range xs {
		a := "u" + strconv.Itoa(t) // unique: a Π_A singleton
		if rng.Intn(2) == 0 {
			a = "s" + strconv.Itoa(rng.Intn(shared))
		}
		b.MustAdd(strconv.Itoa(x), a)
	}
	return b.Relation()
}

// Property: refine's direct path for 2- and 3-tuple classes of Π_X
// emits exactly productSerial's classes. The instances are built so
// every outcome of that path occurs, and the test asserts each did: a
// pair kept or dropped (also with both tuples Π_A singletons), a triple
// kept whole, each of its three pairs kept, and a triple dropped.
func TestPropSmallClassProductMatchesSerial(t *testing.T) {
	sc := &prodScratch{ar: exec.NewArena()}
	seen := map[string]int{}
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 200; i++ {
		r := smallClassRelation(rng, 2+rng.Intn(40))
		px, pa := indexPartition(r, 0), indexPartition(r, 1)
		ia := classIndex(exec.NewArena(), pa, r.N())
		if got, want := refine(px, ia, sc), productSerial(px, pa, r.N()); !partitionsEqual(got, want) {
			t.Fatalf("instance %d: refine = %v %v, productSerial = %v %v", i, got.elems, got.offs, want.elems, want.offs)
		}
		same := func(x, y int32) bool { return ia[x] >= 0 && ia[x] == ia[y] }
		for ci := 0; ci < px.numClasses(); ci++ {
			c := px.class(ci)
			switch {
			case len(c) == 2 && same(c[0], c[1]):
				seen["pair kept"]++
			case len(c) == 2 && ia[c[0]] < 0 && ia[c[1]] < 0:
				seen["pair dropped, both singletons"]++
			case len(c) == 2:
				seen["pair dropped"]++
			case len(c) == 3 && same(c[0], c[1]) && same(c[0], c[2]):
				seen["triple kept"]++
			case len(c) == 3 && same(c[0], c[1]):
				seen["triple keeps 0,1"]++
			case len(c) == 3 && same(c[0], c[2]):
				seen["triple keeps 0,2"]++
			case len(c) == 3 && same(c[1], c[2]):
				seen["triple keeps 1,2"]++
			case len(c) == 3:
				seen["triple dropped"]++
			}
		}
	}
	for _, k := range []string{"pair kept", "pair dropped", "pair dropped, both singletons",
		"triple kept", "triple keeps 0,1", "triple keeps 0,2", "triple keeps 1,2", "triple dropped"} {
		if seen[k] == 0 {
			t.Errorf("no instance took the %q branch (seen %v)", k, seen)
		}
	}
}

// cornerCase is a hand-built instance aimed at one interaction of the
// partition-sharing rule with the rest of the lattice walk. Every case
// plants B → C (C = B/2) next to free columns, so nodes containing both
// B and C survive pruning and must inherit a parent's partition.
type cornerCase struct {
	name string
	r    *relation.Relation
}

func cornerCases() []cornerCase {
	// build adds n generated rows, each one copies times.
	build := func(name string, attrs []string, n, copies int, row func(i int, rng *rand.Rand) []int) cornerCase {
		rng := rand.New(rand.NewSource(int64(len(name))))
		b := relation.NewBuilder(name, attrs)
		cells := make([]string, len(attrs))
		for i := 0; i < n; i++ {
			for j, v := range row(i, rng) {
				cells[j] = strconv.Itoa(v)
			}
			for c := 0; c < copies; c++ {
				b.MustAdd(cells...)
			}
		}
		return cornerCase{name, b.Relation()}
	}
	planted := func(rng *rand.Rand) []int { // B, C = B/2, and two free columns
		b := rng.Intn(6)
		return []int{b, b / 2, rng.Intn(3), rng.Intn(3)}
	}
	return []cornerCase{
		// ∅ → K holds: K leaves the lattice at level 1 and every other
		// node is built as if it were not there.
		build("constant-column", []string{"K", "B", "C", "D", "E"}, 200, 1, func(i int, rng *rand.Rand) []int {
			return append([]int{7}, planted(rng)...)
		}),
		// Every tuple twice: no partition is ever a superkey, so key
		// pruning never fires and the lattice runs to its full height.
		build("duplicate-tuples", []string{"B", "C", "D", "E"}, 100, 2, func(i int, rng *rand.Rand) []int {
			return planted(rng)
		}),
		// A single-column key and a composite key (P, Q): sharing meets
		// the key-pruning rule, whose siblings are partly pruned already
		// (inCPlusByDef).
		build("key", []string{"ID", "B", "C", "D", "P", "Q"}, 200, 1, func(i int, rng *rand.Rand) []int {
			p := planted(rng)
			return []int{i, p[0], p[1], p[2], i / 20, i % 20}
		}),
	}
}

// Property: a full TANE run matches the retained serial reference
// exactly — the same FDs in the same order — with the parallel
// refinement path forced on: on random instances, on DBLP-shaped ones at
// budgets 1, 2 and 4, and on the hand-built corner cases (which a brute
// force also confirms). The reference forms every node's partition as a
// two-partition product and shares nothing; the inputs built to exercise
// partition sharing fail if the production run never took that path.
func TestPropTANEMatchesSerial(t *testing.T) {
	defer forceParallel()()
	t.Run("random", func(t *testing.T) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			r := randomRelation(rng, 20+rng.Intn(120), 3+rng.Intn(4), 2+rng.Intn(3))
			got, err := mineTANE(r)
			if err != nil {
				return false
			}
			want, err := TANESerial(r)
			if err != nil {
				return false
			}
			return reflect.DeepEqual(got, want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatal(err)
		}
	})
	sweep := func(t *testing.T, r *relation.Relation, want []FD) {
		for _, budget := range []int{1, 2, 4} {
			shared := taneShared.Value()
			ctx := exec.WithWorkers(context.Background(), budget)
			got, err := TANEColumnsCtx(ctx, NewSets(ctx, relation.AsColumns(r)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("budget %d: %d FDs, reference %d:\n got %v\nwant %v", budget, len(got), len(want), got, want)
			}
			if taneShared.Value() == shared {
				t.Fatalf("budget %d: no node shared a partition on an input built to exercise sharing", budget)
			}
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("dblp/seed=%d", seed), func(t *testing.T) {
			r := dblp(3000, seed)
			want, err := TANESerial(r)
			if err != nil {
				t.Fatal(err)
			}
			sweep(t, r, want)
		})
	}
	for _, cc := range cornerCases() {
		t.Run(cc.name, func(t *testing.T) {
			want, err := TANESerial(cc.r)
			if err != nil {
				t.Fatal(err)
			}
			brute, err := BruteForce(cc.r)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, brute) {
				t.Fatalf("reference and brute force disagree:\n ref   %v\n brute %v", want, brute)
			}
			sweep(t, cc.r, want)
		})
	}
}

// TANE's FD list must be byte-for-byte stable across runs on the same
// relation — map iteration inside the miner must never reach the output.
// Run under -race this also exercises the parallel product fan-out.
func TestTANEByteStableAcrossRuns(t *testing.T) {
	defer forceParallel()()
	rng := rand.New(rand.NewSource(11))
	r := randomRelation(rng, 300, 6, 3)
	first, err := mineTANE(r)
	if err != nil {
		t.Fatal(err)
	}
	ref := fmt.Sprintf("%v", first)
	for i := 0; i < 4; i++ {
		again, err := mineTANE(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%v", again); got != ref {
			t.Fatalf("run %d differs:\n got %s\nwant %s", i, got, ref)
		}
	}
}

// The TANE observability counters must appear in the Prometheus text
// exposition of the default registry and move when a run happens.
func TestTANEMetricsExposition(t *testing.T) {
	render := func() map[string]uint64 {
		var b bytes.Buffer
		if err := obs.Default.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		out := map[string]uint64{}
		for _, line := range strings.Split(b.String(), "\n") {
			var name string
			var v uint64
			if n, _ := fmt.Sscanf(line, "%s %d", &name, &v); n == 2 {
				out[name] = v
			}
		}
		return out
	}
	before := render()
	r := cornerCases()[0].r // planted B → C: refines some nodes, shares others
	if _, err := mineTANE(r); err != nil {
		t.Fatal(err)
	}
	after := render()
	for _, name := range []string{"structmine_tane_levels", "structmine_tane_products_total", "structmine_tane_shared_partitions_total"} {
		if _, ok := after[name]; !ok {
			t.Fatalf("metric %s missing from exposition", name)
		}
		if after[name] <= before[name] {
			t.Fatalf("metric %s did not advance: before %d, after %d", name, before[name], after[name])
		}
	}
}

// Absorbing via the serial oracle and the arena path must agree on the
// datagen-style projections too, not just random relations; fig4 is the
// paper's worked example.
func TestTANESerialMatchesOnFig4(t *testing.T) {
	r := fig4(t)
	got, err := mineTANE(r)
	if err != nil {
		t.Fatal(err)
	}
	want, err := TANESerial(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fig4 diverges:\n got %v\nwant %v", got, want)
	}
}
