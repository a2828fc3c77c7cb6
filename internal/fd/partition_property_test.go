package fd

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"structmine/internal/colstore"
	"structmine/internal/exec"
	"structmine/internal/primcache"
	"structmine/internal/relation"
	"structmine/internal/store"
)

// fuzzedRelation builds a random instance exercising the cases the
// value index must get exactly right: NULL cells, the same string
// recurring across different attributes (attribute-qualified ids must
// keep them distinct), heavy duplication within a column, and runs of
// consecutive tuples sharing a value.
func fuzzedRelation(r *rand.Rand) *relation.Relation {
	n := 1 + r.Intn(180)
	m := 2 + r.Intn(4)
	attrs := make([]string, m)
	for i := range attrs {
		attrs[i] = "A" + strconv.Itoa(i)
	}
	// A small shared vocabulary so the same strings land in several
	// columns; "" is the NULL spelling.
	vocab := []string{"", "x", "y", "zz", "x", "dup", "dup"}
	b := relation.NewBuilder("fuzz", attrs)
	row := make([]string, m)
	for i := 0; i < n; i++ {
		for j := range row {
			if r.Intn(4) == 0 && i > 0 {
				continue // keep the previous value: consecutive runs
			}
			row[j] = vocab[r.Intn(len(vocab))]
		}
		if err := b.Add(row); err != nil {
			panic(err)
		}
	}
	return b.Relation()
}

// scanBuiltPartition is the reference construction straight from page
// scans: bucket tuple ids per value id, emit classes in ascending
// value-id order, drop singletons. No index involvement at all.
func scanBuiltPartition(t *testing.T, c relation.Columns, a int) *partition {
	t.Helper()
	byValue := map[int32][]int32{}
	var dst [][]int32
	row := int32(0)
	for p := 0; p < c.NumPages(); p++ {
		got, err := c.ReadStripe(p, []int{a}, dst)
		if err != nil {
			t.Fatalf("ReadStripe(%d,[%d]): %v", p, a, err)
		}
		dst = got
		for _, v := range got[0] {
			byValue[v] = append(byValue[v], row)
			row++
		}
	}
	out := &partition{offs: []int32{0}}
	for v := int32(0); v < int32(c.D()); v++ {
		tuples, ok := byValue[v]
		if !ok || len(tuples) < 2 {
			continue
		}
		out.elems = append(out.elems, tuples...)
		out.offs = append(out.offs, int32(len(out.elems)))
	}
	return out
}

// TestPropIndexPartitionsMatchScans pins index-built level-1 partitions
// (and marginals) bit-identical to scan-built ones on fuzzed relations
// with NULLs and duplicate strings, across every source: the resident
// row construction, the resident Columns adapter, the on-disk colstore
// index, and a primcache-wrapped table serving both cold and cached
// lookups.
func TestPropIndexPartitionsMatchScans(t *testing.T) {
	dir := t.TempDir()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel := fuzzedRelation(r)

		sum := sha256.Sum256([]byte(fmt.Sprintf("fuzz-%d", seed)))
		meta := store.DatasetMeta{Hash: hex.EncodeToString(sum[:]), Name: "fuzz", Source: "test", Bytes: 1}
		path, err := colstore.WriteFromRelation(dir, meta, rel, colstore.WriteOptions{PageRows: 16})
		if err != nil {
			t.Fatalf("seed %d: WriteFromRelation: %v", seed, err)
		}
		tbl, err := colstore.Open(path)
		if err != nil {
			t.Fatalf("seed %d: Open: %v", seed, err)
		}
		defer tbl.Close()

		resident := relation.AsColumns(rel)
		cached := primcache.Wrap(tbl, meta.Hash, 0, primcache.New(1<<20))
		for a := 0; a < rel.M(); a++ {
			want := scanBuiltPartition(t, resident, a)
			if got := fromClasses(singlePartitionClasses(rel, a)); !partitionsEqual(got, want) {
				t.Fatalf("seed %d attr %d: resident row partition diverges", seed, a)
			}
			sources := map[string]relation.Columns{"resident": resident, "paged": tbl, "cached-cold": cached, "cached-warm": cached}
			for name, src := range sources {
				got, err := singlePartitionColumns(src, a, exec.NewArena(), nil)
				if err != nil {
					t.Fatalf("seed %d attr %d: %s partition: %v", seed, a, name, err)
				}
				if !partitionsEqual(got, want) {
					t.Fatalf("seed %d attr %d: %s index partition diverges from scan", seed, a, name)
				}
			}

			wantMg, err := relation.ComputeAttrMarginal(resident, a)
			if err != nil {
				t.Fatalf("seed %d attr %d: resident marginal: %v", seed, a, err)
			}
			for _, src := range []relation.Columns{tbl, cached, cached} {
				mg, err := src.Marginal(a)
				if err != nil {
					t.Fatalf("seed %d attr %d: marginal: %v", seed, a, err)
				}
				if mg != wantMg {
					t.Fatalf("seed %d attr %d: marginal %+v, want %+v", seed, a, mg, wantMg)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func partitionsEqual(a, b *partition) bool {
	ea, eb := a.elems, b.elems
	if len(ea) == 0 && len(eb) == 0 {
		ea, eb = nil, nil
	}
	return reflect.DeepEqual(ea, eb) && reflect.DeepEqual(a.offs, b.offs)
}
