package fd

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

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

// Property: the flat probe-table product and the index-built level-1
// partitions reproduce the original slice-of-slices builders exactly —
// same classes, same class order, same tuple order within each class —
// including when one
// scratch is reused across many products (stamp invalidation, buffer
// reuse) and when products chain (products of products).
func TestPropProductMatchesSerial(t *testing.T) {
	sc := &prodScratch{} // shared on purpose: reuse must not leak state
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, 2+rng.Intn(60), 2+rng.Intn(4), 2+rng.Intn(4))
		n := r.N()
		singles := make([]*partition, r.M())
		for a := 0; a < r.M(); a++ {
			singles[a] = indexPartition(r, a)
			if err := samePartition(singles[a], singlePartitionClasses(r, a)); err != nil {
				t.Logf("seed %d indexPartition(%d): %v", seed, a, err)
				return false
			}
		}
		cur := singles[0]
		for a := 1; a < r.M(); a++ {
			got := product(cur, singles[a], n, sc)
			if err := samePartition(got, productClasses(cur, singles[a], n)); err != nil {
				t.Logf("seed %d product chain at %d: %v", seed, a, err)
				return false
			}
			cur = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: a full TANE run matches the retained serial reference
// exactly — the same FDs in the same order — with the parallel product
// path forced on.
func TestPropTANEMatchesSerial(t *testing.T) {
	defer forceParallel()()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, 20+rng.Intn(120), 3+rng.Intn(4), 2+rng.Intn(3))
		got, err := TANE(r)
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
}

// TANE's FD list must be byte-for-byte stable across runs on the same
// relation — map iteration inside the miner must never reach the output.
// Run under -race this also exercises the parallel product fan-out.
func TestTANEByteStableAcrossRuns(t *testing.T) {
	defer forceParallel()()
	rng := rand.New(rand.NewSource(11))
	r := randomRelation(rng, 300, 6, 3)
	first, err := TANE(r)
	if err != nil {
		t.Fatal(err)
	}
	ref := fmt.Sprintf("%v", first)
	for i := 0; i < 4; i++ {
		again, err := TANE(r)
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
	r := rel(t, []string{"A", "B", "C"},
		[]string{"a", "1", "p"},
		[]string{"a", "1", "q"},
		[]string{"b", "2", "p"},
		[]string{"b", "2", "q"},
	)
	if _, err := TANE(r); err != nil {
		t.Fatal(err)
	}
	after := render()
	for _, name := range []string{"structmine_tane_levels", "structmine_tane_products_total"} {
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
	got, err := TANE(r)
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
