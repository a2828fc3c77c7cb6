package fd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"structmine/internal/datagen"
	"structmine/internal/exec"
	"structmine/internal/obs"
	"structmine/internal/relation"
)

// deltaRel builds a relation with a few deliberately correlated columns
// so non-trivial FDs exist, returning it plus its row tuples for
// re-parsing.
func deltaRel(t *testing.T, n int, seed int64) (*relation.Relation, [][]string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString("id,city,zip,grade\n")
	rows := make([][]string, n)
	for i := 0; i < n; i++ {
		city := fmt.Sprintf("c%d", rng.Intn(8))
		rows[i] = []string{
			fmt.Sprintf("%d", i),
			city,
			"z-" + city, // city → zip by construction
			fmt.Sprintf("g%d", rng.Intn(3)),
		}
		sb.WriteString(strings.Join(rows[i], ","))
		sb.WriteByte('\n')
	}
	r, err := relation.ReadCSV("t", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return r, rows
}

func mustDiscover(t *testing.T, r *relation.Relation) []FD {
	t.Helper()
	fds, err := DiscoverCtx(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	SortFDs(fds)
	return fds
}

// fallbackCounts snapshots obs.DeltaFallbacks.
func fallbackCounts() map[string]uint64 {
	out := map[string]uint64{}
	for _, reason := range obs.DeltaFallbackReasons {
		out[reason] = obs.DeltaFallbacks.With(reason).Value()
	}
	return out
}

// fallbackSince names the one reason counted since before ("" for
// none), failing the test if more than one fallback was counted.
func fallbackSince(t *testing.T, before map[string]uint64) string {
	t.Helper()
	got := ""
	for reason, now := range fallbackCounts() {
		switch now - before[reason] {
		case 0:
		case 1:
			if got != "" {
				t.Fatalf("two fallbacks counted for one call: %s and %s", got, reason)
			}
			got = reason
		default:
			t.Fatalf("fallback %s counted %d times for one call", reason, now-before[reason])
		}
	}
	return got
}

func stateOver(r *relation.Relation, fds []FD) *MineState {
	return &MineState{N: r.N(), Attrs: r.M(), FDs: fds}
}

// TestPropDiscoverDeltaMatchesFull is the correctness property: for
// random relations and appends — duplicates (fast path), FD-breaking
// rows (fallback), fresh values, oversized batches, and batches dense
// enough that every prefix row passes the marked-value filter —
// DiscoverDelta must return exactly DiscoverCtx's minimal set over the
// extended relation, say why whenever it re-mined, and leave the state
// of the extended relation behind.
func TestPropDiscoverDeltaMatchesFull(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 6; seed++ {
		base, baseRows := deltaRel(t, 120, seed)
		st := stateOver(base, mustDiscover(t, base))

		dense := make([][]string, 28)
		for i := range dense {
			dense[i] = baseRows[i%10]
		}
		for _, tc := range []struct {
			name string
			rows [][]string
			want string // the fallback reason, "" for the delta path
		}{
			{"dup-rows", [][]string{baseRows[3], baseRows[40], baseRows[7]}, ""},
			{"new-city-ok", [][]string{{"900", "newtown", "z-newtown", "g1"}}, ""},
			{"break-city-zip", [][]string{{"901", baseRows[0][1], "z-elsewhere", "g0"}}, obs.FallbackFDBroken},
			{"break-id-key", [][]string{{baseRows[5][0], "c1", "z-c1", "g2"}, {baseRows[5][0], "c2", "z-c2", "g0"}}, obs.FallbackFDBroken},
			{"oversized", append([][]string{}, baseRows[:60]...), obs.FallbackOversized},
			{"dense-dups", dense, ""},
			{"dense-dups-broken", append(append([][]string{}, dense...), []string{"990", baseRows[0][1], "z-wrong", "g0"}), obs.FallbackFDBroken},
		} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, tc.name), func(t *testing.T) {
				ext, err := base.Extend(tc.rows)
				if err != nil {
					t.Fatal(err)
				}
				before := fallbackCounts()
				got, next, delta, err := DiscoverDelta(ctx, ext, st)
				if err != nil {
					t.Fatal(err)
				}
				if reason := fallbackSince(t, before); reason != tc.want || delta != (tc.want == "") {
					t.Fatalf("delta=%v after fallback %q, want fallback %q", delta, reason, tc.want)
				}
				want := mustDiscover(t, ext)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("FDs diverge from full discovery:\n got %v\nwant %v", got, want)
				}
				if !reflect.DeepEqual(next, stateOver(ext, want)) {
					t.Fatalf("state not updated: %+v", next)
				}
			})
		}
	}
}

// TestDiscoverDeltaFallbacks pins the guard conditions that force a
// full run: nil state (the caller's fallback, so not counted here),
// schema drift, state rows exceeding the relation, and a dependency over
// an attribute the relation does not have.
func TestDiscoverDeltaFallbacks(t *testing.T) {
	ctx := context.Background()
	r, _ := deltaRel(t, 50, 1)
	want := mustDiscover(t, r)

	for name, tc := range map[string]struct {
		prev *MineState
		want string
	}{
		"nil-state":    {nil, ""},
		"schema-drift": {&MineState{N: 50, Attrs: 3}, obs.FallbackShape},
		"shrunk":       {&MineState{N: 80, Attrs: 4}, obs.FallbackShape},
		"wide-fd":      {&MineState{N: 50, Attrs: 4, FDs: []FD{{LHS: NewAttrSet(1), RHS: NewAttrSet(9)}}}, obs.FallbackShape},
	} {
		before := fallbackCounts()
		got, next, delta, err := DiscoverDelta(ctx, r, tc.prev)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reason := fallbackSince(t, before); delta || reason != tc.want {
			t.Fatalf("%s: delta=%v after fallback %q, want %q", name, delta, reason, tc.want)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(next, stateOver(r, want)) {
			t.Fatalf("%s: wrong FDs or state", name)
		}
	}

	// Zero appended rows over a valid state is the trivial delta.
	if _, _, delta, err := DiscoverDelta(ctx, r, stateOver(r, want)); err != nil || !delta {
		t.Fatalf("no-op append: delta=%v err=%v", delta, err)
	}
}

// countingColumns counts the reads a kernel makes of a Columns.
type countingColumns struct {
	relation.Columns
	mu      sync.Mutex
	stripes map[int]int
	visits  int
}

func (c *countingColumns) ReadStripe(p int, attrs []int, dst [][]int32) ([][]int32, error) {
	c.mu.Lock()
	c.stripes[p]++
	c.mu.Unlock()
	return c.Columns.ReadStripe(p, attrs, dst)
}

func (c *countingColumns) VisitValues(a int, runs *[]relation.Run, f func(v int32, count int, runs []relation.Run) error) error {
	c.mu.Lock()
	c.visits++
	c.mu.Unlock()
	return c.Columns.VisitValues(a, runs, f)
}

// TestDeltaReadsEachStripeOnce pins the delta path's cost model on a
// relation of several stripes: no value-index visit and every stripe —
// the one the append starts in included — read exactly once, at any
// worker budget; and a violation among the appended rows alone is found
// without reading a stripe below them.
func TestDeltaReadsEachStripeOnce(t *testing.T) {
	base, baseRows := deltaRel(t, 2*relation.DefaultPageRows+500, 3)
	st := stateOver(base, mustDiscover(t, base))
	for _, workers := range []int{1, 4} {
		ctx := exec.WithWorkers(context.Background(), workers)

		ext, err := base.Extend(baseRows[:300])
		if err != nil {
			t.Fatal(err)
		}
		c := &countingColumns{Columns: relation.AsColumns(ext), stripes: map[int]int{}}
		if _, _, delta, err := DiscoverDeltaColumns(ctx, NewSets(ctx, c), st); err != nil || !delta {
			t.Fatalf("workers=%d: delta=%v err=%v", workers, delta, err)
		}
		if c.visits != 0 || !reflect.DeepEqual(c.stripes, map[int]int{0: 1, 1: 1, 2: 1}) {
			t.Fatalf("workers=%d: %d VisitValues calls, stripe reads %v; want none and one read each", workers, c.visits, c.stripes)
		}

		ext, err = base.Extend([][]string{{"n1", "fresh", "z-a", "g0"}, {"n2", "fresh", "z-b", "g0"}})
		if err != nil {
			t.Fatal(err)
		}
		c = &countingColumns{Columns: relation.AsColumns(ext), stripes: map[int]int{}}
		if ok, err := appendBreaks(ctx, c, st); err != nil || !ok {
			t.Fatalf("workers=%d: appended rows disagreeing on city -> zip: broken=%v err=%v", workers, ok, err)
		}
		if !reflect.DeepEqual(c.stripes, map[int]int{2: 1}) {
			t.Fatalf("workers=%d: stripe reads %v, want the appended stripe only", workers, c.stripes)
		}
	}
}

// TestStateSmallAtWorkloadScale: the persisted FD state of the
// benchmark's paged_ingest input (50 000 DBLP rows over the seven
// projection attributes) is the minimal set and a header — under 1 KiB,
// where the by-value row index it used to carry was ≈ 2 bytes a cell.
func TestStateSmallAtWorkloadScale(t *testing.T) {
	if testing.Short() {
		t.Skip("mines 50 000 rows")
	}
	r := datagen.NewDBLP(datagen.DBLPConfig{Tuples: 50000, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28}).
		Project(datagen.ProjectionAttrs())
	fds, err := mineTANE(r)
	if err != nil {
		t.Fatal(err)
	}
	if size := len(EncodeState(stateOver(r, fds))); size >= 1024 {
		t.Fatalf("state of %d FDs over %d x %d encodes to %d bytes, want < 1 KiB", len(fds), r.N(), r.M(), size)
	}
}

// TestStateCodecRoundtrip pins Encode/Decode identity and rejection of
// truncated bytes. A flipped byte is the store's to catch: the state is
// kept on disk only inside an artifact envelope under its CRC32
// (server.TestFDStateAcrossUpgradeAndCorruption).
func TestStateCodecRoundtrip(t *testing.T) {
	r, _ := deltaRel(t, 90, 4)
	st := stateOver(r, mustDiscover(t, r))
	enc := EncodeState(st)
	dec, err := DecodeState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, st) {
		t.Fatalf("decoded state differs:\n got %+v\nwant %+v", dec, st)
	}
	// A decoded state must be usable for the next delta.
	ext, err := r.Extend([][]string{{"500", "c0", "z-c0", "g0"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DiscoverDelta(context.Background(), ext, dec); err != nil {
		t.Fatalf("DiscoverDelta on decoded state: %v", err)
	}

	for n := 0; n < len(enc); n += 9 {
		if _, err := DecodeState(enc[:n]); !errors.Is(err, ErrCorruptState) {
			t.Fatalf("truncation to %d: err %v, want ErrCorruptState", n, err)
		}
	}
}

// The recheck's key table answers by the stored key, not the hash:
// keys forced onto one hash (every probe collides) each get their own
// value back, a colliding key never stored reads as absent, and growth
// past the half-load bound keeps every entry.
func TestKeyTableCollisions(t *testing.T) {
	var kt keyTable
	if _, ok := kt.get([]int32{1, 2}, 7); ok {
		t.Fatal("empty table reports a key")
	}
	const h = 0x9e3779b97f4a7c15
	for i := int32(0); i < 100; i++ {
		kt.add([]int32{i, -i}, h, 1000+i)
		kt.add([]int32{i, i + 1}, hashKey([]int32{i, i + 1}), 2000+i)
	}
	for i := int32(0); i < 100; i++ {
		if v, ok := kt.get([]int32{i, -i}, h); !ok || v != 1000+i {
			t.Fatalf("colliding key %d: got %d, %v; want %d", i, v, ok, 1000+i)
		}
		if v, ok := kt.get([]int32{i, i + 1}, hashKey([]int32{i, i + 1})); !ok || v != 2000+i {
			t.Fatalf("hashed key %d: got %d, %v; want %d", i, v, ok, 2000+i)
		}
		if _, ok := kt.get([]int32{-i, i}, h); ok && i != 0 {
			t.Fatalf("key (%d, %d) was never stored but shares a stored key's hash and reads as present", -i, i)
		}
	}
	if _, ok := kt.get(nil, hashKey(nil)); ok {
		t.Fatal("the empty key was never stored")
	}
	kt.add(nil, hashKey(nil), 5)
	if v, ok := kt.get(nil, hashKey(nil)); !ok || v != 5 {
		t.Fatalf("empty key: got %d, %v; want 5", v, ok)
	}
}
