package colstore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"structmine/internal/datagen"
	"structmine/internal/primcache"
	"structmine/internal/relation"
	"structmine/internal/task"
)

// pagedIngestCSV is the shape of the paged_ingest benchmark workload:
// DBLP projected to 7 attributes, base rows plus an appended 1 % body
// under the same header.
func pagedIngestCSV(t testing.TB, rows, appendRows int) (base, body []byte) {
	t.Helper()
	full := datagen.NewDBLP(datagen.DBLPConfig{
		Tuples: rows + appendRows, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28,
	}).Project(datagen.ProjectionAttrs())
	var buf bytes.Buffer
	if err := full.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	base = bytes.Join(lines[:1+rows], nil)
	body = append(append([]byte(nil), lines[0]...), bytes.Join(lines[1+rows:], nil)...)
	return base, body
}

// writeTable writes rel to a fresh .col file under dir and opens it.
func writeTable(t *testing.T, dir string, rel *relation.Relation, seq int) *Table {
	t.Helper()
	meta := metaFor(rel.Name, nil)
	meta.Hash = fmt.Sprintf("%064x", seq)
	path, err := WriteFromRelation(dir, meta, rel, WriteOptions{})
	if err != nil {
		t.Fatalf("WriteFromRelation: %v", err)
	}
	return mustOpen(t, path)
}

// TestTableMarginalMatchesCompute: the marginals Open's validation pass
// computes are bit-identical to a walk of the table's value index and
// to a walk of the resident relation's, and a paged describe artifact
// has the bytes of task.Describe of the source relation — on DB2, DBLP
// 2 000 × 13, the paged_ingest shape, and the table an Append writes.
func TestTableMarginalMatchesCompute(t *testing.T) {
	db2, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base, body := pagedIngestCSV(t, 50000, 500)
	shape := mustRelation(t, "paged", base)
	shapeTbl := writeTable(t, dir, shape, 3)
	ext, _, err := relation.AppendCSV(shape, body, relation.Limits{})
	if err != nil {
		t.Fatalf("relation.AppendCSV: %v", err)
	}
	meta := shapeTbl.Meta()
	meta.Hash, meta.Epoch = fmt.Sprintf("%064x", 4), 1
	appended, err := Append(dir, meta, shapeTbl, body, relation.Limits{}, WriteOptions{})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}

	prim := primcache.New(1 << 20)
	for _, tc := range []struct {
		name string
		rel  *relation.Relation
		tbl  *Table
	}{
		{"db2", db2.Joined, writeTable(t, dir, db2.Joined, 1)},
		{"dblp-2000x13", datagen.NewDBLP(datagen.DBLPConfig{Tuples: 2000, Seed: 1}), nil},
		{"paged-50000x7", shape, shapeTbl},
		{"appended-50500x7", ext, mustOpen(t, appended)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl := tc.tbl
			if tbl == nil {
				tbl = writeTable(t, dir, tc.rel, 2)
			}
			resident := relation.AsColumns(tc.rel)
			for a := 0; a < tbl.M(); a++ {
				got, err := tbl.Marginal(a)
				if err != nil {
					t.Fatalf("Marginal(%d): %v", a, err)
				}
				walked, err := relation.ComputeAttrMarginal(tbl, a)
				if err != nil {
					t.Fatalf("ComputeAttrMarginal(table, %d): %v", a, err)
				}
				want, err := relation.ComputeAttrMarginal(resident, a)
				if err != nil {
					t.Fatalf("ComputeAttrMarginal(resident, %d): %v", a, err)
				}
				if got != walked || got != want {
					t.Fatalf("attribute %d: Open's marginal %+v, table walk %+v, resident walk %+v", a, got, walked, want)
				}
			}

			want, err := json.Marshal(task.Describe(tc.rel))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for _, src := range []struct {
				name string
				c    relation.Columns
			}{
				{"table", tbl},
				{"primcache", primcache.Wrap(tbl, tbl.Meta().Hash, tbl.Meta().Epoch, prim)},
			} {
				res, err := task.RunColumns(ctx, src.c, "describe", task.Params{})
				if err != nil {
					t.Fatalf("describe over %s: %v", src.name, err)
				}
				got, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("describe over %s:\n%s\nwant\n%s", src.name, got, want)
				}
			}
		})
	}
}

// recordingMapping counts every range read from and released to the
// real mapping under it.
type recordingMapping struct {
	mapping
	mu       sync.Mutex
	reads    map[[2]int64]int
	releases map[[2]int64]int
}

func (r *recordingMapping) readAt(off int64, n int) ([]byte, error) {
	r.mu.Lock()
	r.reads[[2]int64{off, int64(n)}]++
	r.mu.Unlock()
	return r.mapping.readAt(off, n)
}

func (r *recordingMapping) release(off int64, n int) {
	r.mu.Lock()
	r.releases[[2]int64{off, int64(n)}]++
	r.mu.Unlock()
	r.mapping.release(off, n)
}

// TestTailReadsAreReleased: every range Open, VisitValues,
// ValueStrings and an Append read from a table's file is
// released as often as it was read — the value index and dictionary
// included, which is what keeps a paged dataset's tail off the resident
// set — save the 32-byte header and 24-byte footer Open decodes.
func TestTailReadsAreReleased(t *testing.T) {
	data := testCSV(300)
	meta := metaFor("trips", data)
	dir := t.TempDir()
	path, err := WriteFromRelation(dir, meta, mustRelation(t, "trips", data), WriteOptions{PageRows: 64})
	if err != nil {
		t.Fatalf("WriteFromRelation: %v", err)
	}
	mm, err := openMapping(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingMapping{mapping: mm, reads: map[[2]int64]int{}, releases: map[[2]int64]int{}}
	t.Cleanup(func() { rec.close() })
	tbl, err := newTable(path, rec)
	if err != nil {
		t.Fatalf("newTable: %v", err)
	}
	for a := 0; a < tbl.M(); a++ {
		err := tbl.VisitValues(a, nil, func(int32, int, []relation.Run) error { return nil })
		if err != nil {
			t.Fatalf("VisitValues(%d): %v", a, err)
		}
	}
	if _, err := tbl.ValueStrings(); err != nil {
		t.Fatalf("ValueStrings: %v", err)
	}
	before := len(rec.reads)
	if _, err := task.DescribeColumns(tbl); err != nil {
		t.Fatalf("DescribeColumns: %v", err)
	}
	if len(rec.reads) != before {
		t.Error("describe read the file: its marginals should come from Open")
	}
	meta2 := meta
	meta2.Hash, meta2.Epoch = fmt.Sprintf("%064x", 2), 1
	body := []byte("id,city,zip,grade,note\n900,essen,z-essen,g9,\n")
	if _, err := Append(dir, meta2, tbl, body, relation.Limits{}, WriteOptions{}); err != nil {
		t.Fatalf("Append: %v", err)
	}

	size := mm.size()
	tailReads := 0
	for rng, n := range rec.reads {
		if rng == [2]int64{0, headerSize} || rng == [2]int64{size - footerSize, footerSize} {
			continue
		}
		if rng[0] >= tbl.tailOff {
			tailReads += n
		}
		if got := rec.releases[rng]; got != n {
			t.Errorf("[%d,%d) read %d times, released %d", rng[0], rng[0]+rng[1], n, got)
		}
	}
	// Open's tail, each attribute's section, the dictionary, and the
	// whole tail again for Append, which splices its index sections.
	if want := 1 + tbl.M() + 1 + 1; tailReads != want {
		t.Errorf("%d tail reads, want %d", tailReads, want)
	}
}
