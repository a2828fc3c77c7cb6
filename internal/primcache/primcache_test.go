package primcache

import (
	"reflect"
	"testing"

	"structmine/internal/relation"
)

func testColumns(t *testing.T) relation.Columns {
	t.Helper()
	b := relation.NewBuilder("t", []string{"a", "b"})
	for _, row := range [][]string{
		{"x", "1"}, {"x", "2"}, {"y", "1"}, {"y", "2"}, {"x", ""}, {"z", "1"},
	} {
		if err := b.Add(row); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return relation.AsColumns(b.Relation())
}

func TestWrapNilOrUnkeyedPassesThrough(t *testing.T) {
	c := testColumns(t)
	if got := Wrap(c, "h", 0, nil); got != c {
		t.Fatal("Wrap with nil cache must return the source unchanged")
	}
	if got := Wrap(c, "", 0, New(1<<20)); got != c {
		t.Fatal("Wrap without a hash must return the source unchanged")
	}
	if New(0) != nil || New(-1) != nil {
		t.Fatal("New with a non-positive budget must return nil")
	}
}

func TestWrapCachesPartitionsAndMarginals(t *testing.T) {
	c := testColumns(t)
	cache := New(1 << 20)
	w := Wrap(c, "h", 3, cache).(*wrapped)

	wantElems, wantOffs, err := relation.StrippedPartition(c, 0, nil, nil, nil)
	if err != nil {
		t.Fatalf("StrippedPartition: %v", err)
	}
	e1, o1, err := w.SinglePartition(0)
	if err != nil {
		t.Fatalf("SinglePartition: %v", err)
	}
	if !reflect.DeepEqual(e1, wantElems) || !reflect.DeepEqual(o1, wantOffs) {
		t.Fatalf("partition = (%v,%v), want (%v,%v)", e1, o1, wantElems, wantOffs)
	}
	e2, o2, err := w.SinglePartition(0)
	if err != nil {
		t.Fatalf("SinglePartition (warm): %v", err)
	}
	if &e1[0] != &e2[0] || &o1[0] != &o2[0] {
		t.Fatal("warm SinglePartition must serve the identical cached slices")
	}

	wantMg, err := relation.ComputeAttrMarginal(c, 1)
	if err != nil {
		t.Fatalf("ComputeAttrMarginal: %v", err)
	}
	for i := 0; i < 2; i++ {
		mg, err := w.Marginal(1)
		if err != nil {
			t.Fatalf("Marginal: %v", err)
		}
		if mg != wantMg {
			t.Fatalf("Marginal = %+v, want %+v", mg, wantMg)
		}
	}
	if cache.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (one partition; marginals are not cached)", cache.Len())
	}
	if cache.Bytes() <= 0 {
		t.Fatalf("Bytes = %d, want > 0", cache.Bytes())
	}
}

// marginalSource is a Columns that serves its own marginals.
type marginalSource struct {
	relation.Columns
	mg relation.AttrMarginal
}

func (s marginalSource) Marginal(int) (relation.AttrMarginal, error) { return s.mg, nil }

// TestWrapForwardsMarginals: a wrapped source that holds its marginals
// (a colstore table) serves them, uncomputed and uncached.
func TestWrapForwardsMarginals(t *testing.T) {
	src := marginalSource{Columns: testColumns(t), mg: relation.AttrMarginal{EntropyBits: 2.5, Distinct: 7}}
	cache := New(1 << 20)
	mg, err := Wrap(src, "h", 0, cache).Marginal(0)
	if err != nil {
		t.Fatalf("Marginal: %v", err)
	}
	if mg != src.mg {
		t.Fatalf("Marginal = %+v, want the source's %+v", mg, src.mg)
	}
	if cache.Len() != 0 {
		t.Fatalf("Len = %d, want 0", cache.Len())
	}
}

func TestKeysScopeByHashEpochAttr(t *testing.T) {
	c := testColumns(t)
	cache := New(1 << 20)
	fill := func(hash string, epoch, attr int) {
		w := Wrap(c, hash, epoch, cache).(*wrapped)
		if _, _, err := w.SinglePartition(attr); err != nil {
			t.Fatalf("SinglePartition: %v", err)
		}
	}
	fill("h1", 0, 0)
	fill("h1", 0, 0) // warm: no new entry
	fill("h1", 0, 1) // other attribute
	fill("h1", 1, 0) // epoch bump (append)
	fill("h2", 0, 0) // other dataset
	if cache.Len() != 4 {
		t.Fatalf("Len = %d, want 4 distinct (hash, epoch, attr) entries", cache.Len())
	}
}

func TestByteBudgetLRUEvicts(t *testing.T) {
	cache := New(100)
	k := func(attr int) key { return key{"h", 0, attr, kindPartition} }
	cache.put(k(0), "a", 40)
	cache.put(k(1), "b", 40)
	if cache.Bytes() != 80 || cache.Len() != 2 {
		t.Fatalf("after fill: bytes=%d len=%d, want 80/2", cache.Bytes(), cache.Len())
	}
	// Touch k(0) so k(1) is the LRU victim.
	if _, ok := cache.get(k(0)); !ok {
		t.Fatal("get(k0) missed")
	}
	cache.put(k(2), "c", 40)
	if _, ok := cache.get(k(1)); ok {
		t.Fatal("k1 should have been evicted as least recently used")
	}
	if _, ok := cache.get(k(0)); !ok {
		t.Fatal("k0 should have survived eviction")
	}
	if cache.Bytes() != 80 || cache.Len() != 2 {
		t.Fatalf("after evict: bytes=%d len=%d, want 80/2", cache.Bytes(), cache.Len())
	}
	// A value larger than the whole budget is never admitted.
	cache.put(k(3), "huge", 101)
	if _, ok := cache.get(k(3)); ok {
		t.Fatal("oversize value must not be admitted")
	}
	// A duplicate put (racing compute) is dropped, not double-counted.
	cache.put(k(0), "a2", 40)
	if v, _ := cache.get(k(0)); v != "a" {
		t.Fatalf("duplicate put replaced value: got %v", v)
	}
	if cache.Bytes() != 80 {
		t.Fatalf("duplicate put changed bytes: %d", cache.Bytes())
	}
}
