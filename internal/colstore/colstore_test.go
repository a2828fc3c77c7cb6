package colstore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"structmine/internal/fd"
	"structmine/internal/relation"
	"structmine/internal/store"
	"structmine/internal/store/storetest"
	"structmine/internal/task"
	"structmine/internal/tuples"
	"structmine/internal/values"
)

// testCSV builds a deterministic CSV with duplication structure (an FD
// city -> zip, repeated values, a few empty cells) so the miners have
// something to find.
func testCSV(rows int) []byte {
	rng := rand.New(rand.NewSource(7))
	var b bytes.Buffer
	b.WriteString("id,city,zip,grade,note\n")
	cities := []string{"athens", "berlin", "cairo", "delhi"}
	for t := 0; t < rows; t++ {
		city := cities[rng.Intn(len(cities))]
		zip := fmt.Sprintf("z-%s", city) // city -> zip holds
		grade := fmt.Sprintf("g%d", rng.Intn(3))
		note := "ok"
		if rng.Intn(10) == 0 {
			note = "" // NULL cells
		}
		fmt.Fprintf(&b, "%d,%s,%s,%s,%s\n", t, city, zip, grade, note)
	}
	return b.Bytes()
}

func metaFor(name string, data []byte) store.DatasetMeta {
	sum := sha256.Sum256(data)
	return store.DatasetMeta{
		Hash: hex.EncodeToString(sum[:]), Name: name, Source: "test",
		Bytes: int64(len(data)),
	}
}

func openCSV(data []byte) func() (io.ReadCloser, error) {
	return func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(data)), nil }
}

func mustRelation(t *testing.T, name string, data []byte) *relation.Relation {
	t.Helper()
	rel, err := relation.ReadCSVLimited(name, bytes.NewReader(data), relation.Limits{})
	if err != nil {
		t.Fatalf("parsing CSV: %v", err)
	}
	return rel
}

func mustOpen(t *testing.T, path string) *Table {
	t.Helper()
	tbl, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() { tbl.Close() })
	return tbl
}

// testCSV300SHA256 is the SHA-256 of the .col file for testCSV(300)
// under metaFor("trips", …) at PageRows 64. It was computed with the
// two-pass spill/merge Ingest of the commit before colstore stopped
// parsing CSV (b2d7c09: a throwaway test there hashing the file Ingest
// returned for exactly these inputs), so it pins the format across that
// change and any later one: a writer that moves a byte fails here.
const testCSV300SHA256 = "a95b289383a715dbffd09b7fa8c3aafaccb3445098ad94c7bbad4af3d5a16594"

// TestIngestMatchesWriteFromRelation pins every write path to the same
// bytes — the committed hash above, not just each other: Ingest of a
// CSV, a dump of the parsed relation, and Ingest of a prefix followed by
// Append of the rest must be indistinguishable on disk, which is what
// lets resident, paged and appended datasets share files.
func TestIngestMatchesWriteFromRelation(t *testing.T) {
	data := testCSV(300)
	meta := metaFor("trips", data)
	opt := WriteOptions{PageRows: 64}

	dirA, dirB := t.TempDir(), t.TempDir()
	pathA, err := Ingest(dirA, meta, openCSV(data), relation.Limits{}, opt)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	rel := mustRelation(t, "trips", data)
	pathB, err := WriteFromRelation(dirB, meta, rel, opt)
	if err != nil {
		t.Fatalf("WriteFromRelation: %v", err)
	}
	a, _ := os.ReadFile(pathA)
	b, _ := os.ReadFile(pathB)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("ingest and relation dump diverge: %d vs %d bytes", len(a), len(b))
	}

	base, rest := splitCSV(t, data, 200)
	basePath, err := Ingest(t.TempDir(), metaFor("trips", base), openCSV(base), relation.Limits{}, opt)
	if err != nil {
		t.Fatalf("Ingest(first 200 rows): %v", err)
	}
	pathC, err := Append(t.TempDir(), meta, mustOpen(t, basePath), rest, relation.Limits{}, opt)
	if err != nil {
		t.Fatalf("Append(rest): %v", err)
	}
	for what, path := range map[string]string{"Ingest": pathA, "WriteFromRelation": pathB, "Ingest+Append": pathC} {
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256.Sum256(file); hex.EncodeToString(got[:]) != testCSV300SHA256 {
			t.Errorf("%s wrote %d bytes with SHA-256 %x, want the pinned %s", what, len(file), got, testCSV300SHA256)
		}
	}
}

// TestSpillPreservesOrder holds Ingest to first-appearance id order on
// the input the deleted spill/merge dictionary existed for: in every
// column the strings first appear in descending order, and the columns
// introduce their values interleaved row by row, so first-appearance
// order differs from (attribute, string) sort order both within and
// across columns. The ids in the file must be relation.ReadCSV's and
// the bytes WriteFromRelation's.
func TestSpillPreservesOrder(t *testing.T) {
	var src bytes.Buffer
	src.WriteString("a,b,c\n")
	for i := 500; i > 0; i-- {
		fmt.Fprintf(&src, "a%03d,b%03d,c%03d\n", i, i/2, i/3)
	}
	data := src.Bytes()
	meta := metaFor("trips", data)
	opt := WriteOptions{PageRows: 32}

	path, err := Ingest(t.TempDir(), meta, openCSV(data), relation.Limits{}, opt)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	want, err := relation.ReadCSV("trips", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if want.ValueString(0) != "a500" || want.ValueString(1) != "b250" || want.ValueString(3) != "a499" {
		t.Fatalf("input does not intern row-major in descending string order")
	}
	got, err := mustOpen(t, path).Relation()
	if err != nil {
		t.Fatalf("Relation: %v", err)
	}
	assertSameRelation(t, "ingested file", got, want)

	dump, err := WriteFromRelation(t.TempDir(), meta, want, opt)
	if err != nil {
		t.Fatalf("WriteFromRelation: %v", err)
	}
	a, _ := os.ReadFile(path)
	b, _ := os.ReadFile(dump)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("ingest and relation dump diverge: %d vs %d bytes", len(a), len(b))
	}
}

// TestColumnsMatchResident checks the paged interface answers exactly
// like the resident wrapper: pages, value index, null counts.
func TestColumnsMatchResident(t *testing.T) {
	data := testCSV(257) // not a multiple of pageRows: exercises the short tail stripe
	meta := metaFor("trips", data)
	rel := mustRelation(t, "trips", data)
	path, err := WriteFromRelation(t.TempDir(), meta, rel, WriteOptions{PageRows: 64})
	if err != nil {
		t.Fatalf("WriteFromRelation: %v", err)
	}
	tbl := mustOpen(t, path)
	res := relation.AsColumns(rel)

	if tbl.N() != res.N() || tbl.M() != res.M() || tbl.D() != res.D() {
		t.Fatalf("shape: paged (%d,%d,%d) resident (%d,%d,%d)",
			tbl.N(), tbl.M(), tbl.D(), res.N(), res.M(), res.D())
	}
	if !reflect.DeepEqual(tbl.AttrNames(), res.AttrNames()) {
		t.Fatalf("attr names: %v vs %v", tbl.AttrNames(), res.AttrNames())
	}
	if tbl.NumPages() != (tbl.N()+tbl.PageRows()-1)/tbl.PageRows() {
		t.Fatalf("page count %d for n=%d pageRows=%d", tbl.NumPages(), tbl.N(), tbl.PageRows())
	}
	for p := 0; p < tbl.NumPages(); p++ {
		for a := 0; a < tbl.M(); a++ {
			got, err := tbl.ReadPage(p, a, nil)
			if err != nil {
				t.Fatalf("ReadPage(%d,%d): %v", p, a, err)
			}
			want, _ := res.ReadPage(p*tbl.PageRows()/res.PageRows(), a, nil)
			// Page geometries may differ; compare via global row index.
			for i, v := range got {
				row := p*tbl.PageRows() + i
				if w := rel.Row(row)[a]; v != w {
					t.Fatalf("page %d attr %d row %d: %d want %d (resident page head %v)", p, a, row, v, w, want[:1])
				}
			}
		}
	}
	for a := 0; a < tbl.M(); a++ {
		if tbl.NullCount(a) != int(float64(rel.N())*rel.NullFraction(a)+0.5) {
			t.Errorf("attr %d null count %d vs resident fraction %g", a, tbl.NullCount(a), rel.NullFraction(a))
		}
		type entry struct {
			v     int32
			count int
			runs  []relation.Run
		}
		collect := func(c relation.Columns) []entry {
			var out []entry
			if err := c.VisitValues(a, func(v int32, count int, runs []relation.Run) error {
				out = append(out, entry{v, count, append([]relation.Run(nil), runs...)})
				return nil
			}); err != nil {
				t.Fatalf("VisitValues: %v", err)
			}
			return out
		}
		if got, want := collect(tbl), collect(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("attr %d value index diverges:\n got %v\nwant %v", a, got, want)
		}
	}
	for v := 0; v < tbl.D(); v++ {
		if tbl.ValueAttr(int32(v)) != res.ValueAttr(int32(v)) {
			t.Fatalf("value %d attr %d want %d", v, tbl.ValueAttr(int32(v)), res.ValueAttr(int32(v)))
		}
	}
}

// TestMinersBitIdentical pins the paged kernels to the resident ones:
// TANE's FD set, LIMBO's tuple and value objects, and the task-level
// describe profile must match exactly.
func TestMinersBitIdentical(t *testing.T) {
	data := testCSV(400)
	meta := metaFor("trips", data)
	rel := mustRelation(t, "trips", data)
	path, err := WriteFromRelation(t.TempDir(), meta, rel, WriteOptions{PageRows: 128})
	if err != nil {
		t.Fatalf("WriteFromRelation: %v", err)
	}
	tbl := mustOpen(t, path)
	ctx := context.Background()

	wantFDs, err := fd.TANECtx(ctx, rel)
	if err != nil {
		t.Fatalf("TANE resident: %v", err)
	}
	gotFDs, err := fd.TANEColumnsCtx(ctx, tbl)
	if err != nil {
		t.Fatalf("TANE paged: %v", err)
	}
	fd.SortFDs(wantFDs)
	fd.SortFDs(gotFDs)
	if !reflect.DeepEqual(gotFDs, wantFDs) {
		t.Fatalf("FD sets diverge:\n got %v\nwant %v", gotFDs, wantFDs)
	}

	gotT, err := tuples.ObjectsColumnsCtx(ctx, tbl)
	if err != nil {
		t.Fatalf("tuple objects paged: %v", err)
	}
	if want := tuples.Objects(rel); !reflect.DeepEqual(gotT, want) {
		t.Fatalf("tuple objects diverge")
	}
	gotV, err := values.ObjectsColumnsCtx(ctx, tbl)
	if err != nil {
		t.Fatalf("value objects paged: %v", err)
	}
	if want, _ := values.ObjectsColumnsCtx(ctx, relation.AsColumns(rel)); !reflect.DeepEqual(gotV, want) {
		t.Fatalf("value objects diverge")
	}

	// describe is tier-independent: the same bytes from either source.
	got, err := task.DescribeColumns(tbl)
	if err != nil {
		t.Fatalf("DescribeColumns: %v", err)
	}
	if want := task.Describe(rel); !reflect.DeepEqual(got, want) {
		t.Fatalf("describe diverges: %+v vs %+v", got, want)
	}
}

// TestWriteFaults drives the writer through the fault-injecting FS: a
// short write or failed rename must leave no .col file and no temp
// litter — only a clean error.
func TestWriteFaults(t *testing.T) {
	data := testCSV(200)
	meta := metaFor("trips", data)
	rel := mustRelation(t, "trips", data)

	checkClean := func(t *testing.T, dir string, err error, want error) {
		t.Helper()
		if err == nil || (want != nil && !errors.Is(err, want)) {
			t.Fatalf("err %v, want %v", err, want)
		}
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			t.Errorf("leftover file %s after failed write", e.Name())
		}
	}

	t.Run("short-write", func(t *testing.T) {
		fs := storetest.NewFaultFS()
		fs.SetWriteBudget(512)
		dir := t.TempDir()
		_, err := WriteFromRelation(dir, meta, rel, WriteOptions{FS: fs, PageRows: 32})
		checkClean(t, dir, err, storetest.ErrInjectedWrite)
	})
	t.Run("rename-fails", func(t *testing.T) {
		fs := storetest.NewFaultFS()
		fs.SetFailRenames(true)
		dir := t.TempDir()
		_, err := WriteFromRelation(dir, meta, rel, WriteOptions{FS: fs, PageRows: 32})
		checkClean(t, dir, err, storetest.ErrInjectedRename)
	})
	t.Run("sync-fails", func(t *testing.T) {
		fs := storetest.NewFaultFS()
		fs.SetFailSync(true)
		dir := t.TempDir()
		_, err := WriteFromRelation(dir, meta, rel, WriteOptions{FS: fs, Fsync: true, PageRows: 32})
		checkClean(t, dir, err, storetest.ErrInjectedSync)
	})
	t.Run("ingest-short-write", func(t *testing.T) {
		fs := storetest.NewFaultFS()
		fs.SetWriteBudget(256)
		dir := t.TempDir()
		_, err := Ingest(dir, meta, openCSV(data), relation.Limits{}, WriteOptions{FS: fs, PageRows: 32})
		checkClean(t, dir, err, storetest.ErrInjectedWrite)
	})
}

// TestBitFlipDetected flips one byte at a time across interesting file
// regions and requires Open (or the first page read / index visit) to
// fail with ErrCorrupt rather than return wrong data or crash.
func TestBitFlipDetected(t *testing.T) {
	data := testCSV(150)
	meta := metaFor("trips", data)
	path, err := Ingest(t.TempDir(), meta, openCSV(data), relation.Limits{}, WriteOptions{PageRows: 32})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// One offset in every region: header, first page, page CRC, tail,
	// footer — plus a dense sweep of the first and last 64 bytes.
	offsets := map[int]bool{}
	for i := 0; i < 64 && i < len(orig); i++ {
		offsets[i] = true
		offsets[len(orig)-1-i] = true
	}
	for i := 0; i < len(orig); i += 97 {
		offsets[i] = true
	}
	dir := t.TempDir()
	for off := range offsets {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0x40
		p := filepath.Join(dir, "flip.col")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		tbl, err := Open(p)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("offset %d: Open error %v is not ErrCorrupt", off, err)
			}
			continue
		}
		// The flip landed in page data: the first touch must catch it.
		var readErr error
		for p := 0; p < tbl.NumPages() && readErr == nil; p++ {
			for a := 0; a < tbl.M() && readErr == nil; a++ {
				_, readErr = tbl.ReadPage(p, a, nil)
			}
		}
		if readErr == nil {
			t.Errorf("offset %d: flip undetected by Open and all page reads", off)
		} else if !errors.Is(readErr, ErrCorrupt) {
			t.Errorf("offset %d: page read error %v is not ErrCorrupt", off, readErr)
		}
		tbl.Close()
	}
}

// TestOpenTruncations checks every prefix-truncation of a valid file is
// rejected cleanly.
func TestOpenTruncations(t *testing.T) {
	data := testCSV(60)
	meta := metaFor("trips", data)
	path, err := Ingest(t.TempDir(), meta, openCSV(data), relation.Limits{}, WriteOptions{PageRows: 16})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	orig, _ := os.ReadFile(path)
	dir := t.TempDir()
	for n := 0; n < len(orig); n += 13 {
		p := filepath.Join(dir, "trunc.col")
		if err := os.WriteFile(p, orig[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if tbl, err := Open(p); err == nil {
			tbl.Close()
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// TestIngestRejectsBadCSV checks parse-limit errors surface from the
// streaming passes with their line numbers.
func TestIngestRejectsBadCSV(t *testing.T) {
	bad := []byte("a,b\n1,2\n3\n") // ragged row
	meta := metaFor("bad", bad)
	if _, err := Ingest(t.TempDir(), meta, openCSV(bad), relation.Limits{}, WriteOptions{}); err == nil {
		t.Fatal("ragged CSV accepted")
	}
	big := testCSV(100)
	meta = metaFor("big", big)
	_, err := Ingest(t.TempDir(), meta, openCSV(big), relation.Limits{MaxRows: 10}, WriteOptions{})
	if err == nil || !strings.Contains(err.Error(), "row limit") {
		t.Fatalf("row limit not enforced: %v", err)
	}
}
