package fd

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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
	p, err := singlePartitionColumns(relation.AsColumns(r), a, exec.NewArena(), nil)
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

// labeledInstance lays out Π_X classes and their tuples' a-labels:
// classes[i] lists the labels of class i's tuples in Π_X order, and the
// tuples are numbered class after class. A label ≥ 0 is a value of A
// shared with every tuple holding it; −1 is a value of the tuple's own.
// Π_X and Π_A are built directly (Π_A's classes in ascending label
// order, so a class can list its labels in any order of a-class ids),
// and r spells the same instance as rows (X, A) for g3Of.
func labeledInstance(classes [][]int) (px, pa *partition, r *relation.Relation) {
	var xs [][]int32
	byLabel := map[int][]int32{}
	b := relation.NewBuilder("labeled", []string{"X", "A"})
	t := int32(0)
	for i, c := range classes {
		var x []int32
		for _, l := range c {
			x = append(x, t)
			a := "u" + strconv.Itoa(int(t))
			if l >= 0 {
				byLabel[l] = append(byLabel[l], t)
				a = "a" + strconv.Itoa(l)
			}
			b.MustAdd("x"+strconv.Itoa(i), a)
			t++
		}
		if len(x) >= 2 {
			xs = append(xs, x)
		}
	}
	var as [][]int32
	for l := 0; len(byLabel) > 0; l++ {
		if ts, ok := byLabel[l]; ok {
			if len(ts) >= 2 {
				as = append(as, ts)
			}
			delete(byLabel, l)
		}
	}
	return fromClasses(xs), fromClasses(as), b.Relation()
}

// wholeClassLabels draws the labels of one Π_X class of 4–500 tuples
// shaped as the named case of the slot walk (see
// TestPropWholeClassProductMatchesSerial); shared labels come from
// 0..7, so they recur across classes.
func wholeClassLabels(rng *rand.Rand, shape string) []int {
	n := 4 + rng.Intn(497)
	if rng.Intn(2) == 0 {
		n = 4 + rng.Intn(12) // short classes put k = 1, 2 and len−1 close together
	}
	shared := func() int { return rng.Intn(8) }
	label := func() int { return rng.Intn(9) - 1 } // −1 or shared
	c := make([]int, n)
	fill := func(l int) {
		for i := range c {
			c[i] = l
		}
	}
	switch shape {
	case "whole":
		fill(shared())
	case "all singletons":
		fill(-1)
	case "k=1", "k=2", "k=len-1":
		k := map[string]int{"k=1": 1, "k=2": 2, "k=len-1": n - 1}[shape]
		a, d := label(), label()
		for d == a {
			d = label()
		}
		for i := range c {
			switch {
			case i < k:
				c[i] = a
			case i == k:
				c[i] = d
			case rng.Intn(3) == 0:
				c[i] = a
			default:
				c[i] = label()
			}
		}
	case "one survivor, rest singletons":
		fill(shared())
		for _, i := range rng.Perm(n)[:1+rng.Intn(n-2)] { // at least two stay
			c[i] = -1
		}
	case "several survivors out of order":
		// 2–4 labels, each on ≥ 2 tuples, first appearing in descending
		// order; −1 tuples sprinkled in.
		labels := rng.Perm(8)[:2+rng.Intn(3)]
		slices.Sort(labels)
		slices.Reverse(labels)
		c = c[:0]
		for _, l := range labels {
			c = append(c, l, l)
		}
		for len(c) < n {
			if rng.Intn(4) == 0 {
				c = append(c, -1)
			} else {
				c = append(c, labels[rng.Intn(len(labels))])
			}
		}
	}
	return c
}

// Property: refine's path for classes of ≥ 4 tuples — the whole-class
// pre-scan, the seeded slot walk, the survivors-only sort and the lone
// survivor's filtering pass — emits exactly productSerial's classes,
// and g3Removed counts exactly g3Of's removed tuples (limit n + 1) and
// at least the limit when it stops early. The instances are built so
// each case occurs, and the test asserts each did: a class that
// survives whole; one whose tuples are all Π_A singletons; the first
// tuple leaving cls[0]'s a-class at k = 1, k = 2 and k = len − 1; one
// survivor covering every tuple but the Π_A singletons; and several
// survivors whose a-classes first appear out of ascending order. One
// scratch serves every walk, so no count or cursor may leak between
// classes.
func TestPropWholeClassProductMatchesSerial(t *testing.T) {
	shapes := []string{"whole", "all singletons", "k=1", "k=2", "k=len-1",
		"one survivor, rest singletons", "several survivors out of order"}
	sc := &prodScratch{ar: exec.NewArena()}
	seen := map[string]int{}
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 150; i++ {
		classes := make([][]int, 1+rng.Intn(6))
		for j := range classes {
			classes[j] = wholeClassLabels(rng, shapes[rng.Intn(len(shapes))])
		}
		px, pa, r := labeledInstance(classes)
		n := r.N()
		ia := classIndex(exec.NewArena(), pa, n)
		if got, want := refine(px, ia, sc), productSerial(px, pa, n); !partitionsEqual(got, want) {
			t.Fatalf("instance %d: refine = %v %v, productSerial = %v %v", i, got.elems, got.offs, want.elems, want.offs)
		}
		removed := g3Removed(px, ia, sc, n+1)
		if got, want := g3Frac(removed, n), g3Of(r, FD{LHS: NewAttrSet(0), RHS: NewAttrSet(1)}); got != want {
			t.Fatalf("instance %d: g3Removed = %d (g3 %v), g3Of %v", i, removed, got, want)
		}
		for _, limit := range []int{1, removed/2 + 1, removed} {
			got := g3Removed(px, ia, sc, limit)
			if got > removed || limit <= removed && got < limit || limit > removed && got != removed {
				t.Fatalf("instance %d: g3Removed at limit %d = %d, full count %d", i, limit, got, removed)
			}
		}
		for ci := 0; ci < px.numClasses(); ci++ {
			c := px.class(ci)
			k := 1
			for k < len(c) && ia[c[k]] == ia[c[0]] {
				k++
			}
			cnt, singles := map[int32]int{}, 0
			var survivors []int32 // a-classes in order of first appearance, then those of ≥ 2
			for _, t := range c {
				if a := ia[t]; a < 0 {
					singles++
				} else {
					if cnt[a] == 0 {
						survivors = append(survivors, a)
					}
					cnt[a]++
				}
			}
			survivors = slices.DeleteFunc(survivors, func(a int32) bool { return cnt[a] < 2 })
			switch {
			case k == len(c) && ia[c[0]] >= 0:
				seen["whole"]++
			case k == len(c):
				seen["all singletons"]++
			case len(survivors) == 1 && cnt[survivors[0]]+singles == len(c):
				seen["one survivor, rest singletons"]++
			case len(survivors) >= 2 && !slices.IsSorted(survivors):
				seen["several survivors out of order"]++
			}
			switch {
			case k == len(c):
			case k == 1:
				seen["k=1"]++
			case k == 2:
				seen["k=2"]++
			case k == len(c)-1:
				seen["k=len-1"]++
			}
		}
	}
	for _, k := range shapes {
		if seen[k] == 0 {
			t.Errorf("no class took the %q case (seen %v)", k, seen)
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
	sweep := func(t *testing.T, r *relation.Relation, want []FD, atoms bool) {
		for _, budget := range []int{1, 2, 4} {
			shared := taneShared.Value()
			ctx := exec.WithWorkers(context.Background(), budget)
			got, tn, err := mineSpace(ctx, r)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("budget %d: %d FDs, reference %d:\n got %v\nwant %v", budget, len(got), len(want), got, want)
			}
			if taneShared.Value() == shared {
				t.Fatalf("budget %d: no node shared a partition on an input built to exercise sharing", budget)
			}
			if atoms && tn.s < 0 {
				t.Fatalf("budget %d: the walk stayed on tuples on an input whose rows merge off its most distinct attribute", budget)
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
			sweep(t, r, want, true)
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
			sweep(t, cc.r, want, false)
		})
	}
}

// mineSpace runs TANEColumnsCtx's walk and also returns the miner, so
// a test can read which attribute stayed on tuples (s) and the atom
// count (the length of any aidx entry).
func mineSpace(ctx context.Context, r *relation.Relation) ([]FD, *tane, error) {
	s := NewSets(ctx, relation.AsColumns(r))
	tn := &tane{c: s.Columns(), sets: s}
	fds, err := tn.mine(ctx)
	return fds, tn, err
}

// distinctOff counts the distinct rows of r projected off attribute s,
// from the rendered values: the atoms the walk should number.
func distinctOff(r *relation.Relation, s int) int {
	seen := map[string]bool{}
	for u := 0; u < r.N(); u++ {
		row := r.TupleStrings(u)
		seen[strings.Join(slices.Delete(row, s, s+1), "\x00")] = true
	}
	return len(seen)
}

// The walk moves the nodes without the most distinct attribute onto
// atoms exactly when m ≥ 3 and some rows agree off it: s is that
// attribute (ties to the lowest index), the atom count is the number
// of distinct rows off s, and the FDs are the reference's either way.
func TestTANEAtomSpace(t *testing.T) {
	build := func(attrs []string, n int, row func(i int) []int) *relation.Relation {
		b := relation.NewBuilder("atoms", attrs)
		cells := make([]string, len(attrs))
		for i := 0; i < n; i++ {
			for j, v := range row(i) {
				cells[j] = strconv.Itoa(v)
			}
			b.MustAdd(cells...)
		}
		return b.Relation()
	}
	d := dblp(3000, 1)
	kb := relation.NewBuilder("dblp-keyed", append([]string{"Id"}, d.Attrs...))
	for u := 0; u < d.N(); u++ {
		kb.MustAdd(append([]string{strconv.Itoa(u)}, d.TupleStrings(u)...)...)
	}
	for _, tc := range []struct {
		name string
		r    *relation.Relation
		s    int // −1: the walk stays on tuples
	}{
		{"dblp/s=Author", d, 0},
		// At 2 000 rows Pages' 801 values outnumber Author's 641.
		{"dblp-2000/s=Pages", dblp(2000, 1), 4},
		{"dblp-keyed/s=Id", kb.Relation(), 0},
		// A and B both take 10 values; B off A still pins the row.
		{"tie/s=A", build([]string{"C", "A", "B"}, 40, func(i int) []int { return []int{i % 2, i % 10, i * 3 % 10} }), 1},
		{"m=2", build([]string{"A", "B"}, 40, func(i int) []int { return []int{i % 7, i % 3} }), -1},
		// R∖{A} = {B, C} is a key: no two rows merge.
		{"no-merge", build([]string{"A", "B", "C"}, 40, func(i int) []int { return []int{i, i, i % 3} }), -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := TANESerial(tc.r)
			if err != nil {
				t.Fatal(err)
			}
			got, tn, err := mineSpace(context.Background(), tc.r)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d FDs, reference %d:\n got %v\nwant %v", len(got), len(want), got, want)
			}
			if tn.s != tc.s {
				t.Fatalf("s = %d, want %d", tn.s, tc.s)
			}
			if tc.s < 0 {
				if tn.aidx != nil {
					t.Fatal("atom indexes built although the walk stays on tuples")
				}
				return
			}
			atoms := distinctOff(tc.r, tc.s)
			if atoms == tc.r.N() {
				t.Fatal("no rows merge off s: the case cannot engage atoms")
			}
			for a, ix := range tn.aidx {
				if a != tc.s && len(ix) != atoms {
					t.Fatalf("aidx[%d] spans %d atoms, want %d", a, len(ix), atoms)
				}
			}
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
	for _, name := range []string{"structmine_tane_levels", "structmine_tane_products_total", "structmine_tane_product_elements_total", "structmine_tane_shared_partitions_total"} {
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
