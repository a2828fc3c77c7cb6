package colstore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"testing"

	"structmine/internal/relation"
)

// splitCSV cuts a CSV body at row k, re-attaching the header to the
// second half so it is a well-formed append body.
func splitCSV(t *testing.T, data []byte, k int) (base, tail []byte) {
	t.Helper()
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < k+2 {
		t.Fatalf("cannot split %d lines at row %d", len(lines), k)
	}
	base = bytes.Join(lines[:k+1], nil)
	tail = append(append([]byte(nil), lines[0]...), bytes.Join(lines[k+1:], nil)...)
	return base, tail
}

// TestAppendMatchesFreshIngest pins the tentpole identity: appending
// rows to a paged dataset produces the same bytes as ingesting the
// concatenated source from scratch — across stripe boundaries, partial
// trailing stripes, and appends that introduce new dictionary values.
func TestAppendMatchesFreshIngest(t *testing.T) {
	data := testCSV(300) // new grade/note values keep appearing throughout
	for _, split := range []int{1, 63, 64, 65, 150, 256, 299} {
		t.Run(fmt.Sprintf("split-%d", split), func(t *testing.T) {
			base, tail := splitCSV(t, data, split)
			meta := metaFor("trips", data)
			meta.ID, meta.Epoch = "trips-id", 1
			opt := WriteOptions{PageRows: 64}

			oldMeta := metaFor("trips", base)
			oldMeta.ID = "trips-id"
			oldPath, err := Ingest(t.TempDir(), oldMeta, openCSV(base), relation.Limits{}, opt)
			if err != nil {
				t.Fatalf("Ingest(base): %v", err)
			}
			old := mustOpen(t, oldPath)

			gotPath, err := Append(t.TempDir(), meta, old, tail, relation.Limits{}, opt)
			if err != nil {
				t.Fatalf("Append: %v", err)
			}
			wantPath, err := Ingest(t.TempDir(), meta, openCSV(data), relation.Limits{}, opt)
			if err != nil {
				t.Fatalf("Ingest(full): %v", err)
			}
			got, _ := os.ReadFile(gotPath)
			want, _ := os.ReadFile(wantPath)
			if len(got) == 0 || !bytes.Equal(got, want) {
				t.Fatalf("append diverges from fresh ingest: %d vs %d bytes", len(got), len(want))
			}
			tbl := mustOpen(t, gotPath)
			if tbl.Meta().ID != "trips-id" || tbl.Meta().Epoch != 1 {
				t.Fatalf("appended meta %+v lost id or epoch", tbl.Meta())
			}
		})
	}
}

// TestAppendShapeMismatch checks the same schema discipline registration
// enforces: wrong column count, wrong names, wrong order all refuse with
// relation.ErrShapeMismatch and write nothing.
func TestAppendShapeMismatch(t *testing.T) {
	data := testCSV(100)
	meta := metaFor("trips", data)
	path, err := Ingest(t.TempDir(), meta, openCSV(data), relation.Limits{}, WriteOptions{PageRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	old := mustOpen(t, path)
	newMeta := meta
	newMeta.Hash = "ffff"
	for _, body := range []string{
		"id,city,zip,grade\n1,athens,z-athens,g0\n",
		"id,city,zip,grade,comment\n1,athens,z-athens,g0,ok\n",
		"city,id,zip,grade,note\nathens,1,z-athens,g0,ok\n",
	} {
		dir := t.TempDir()
		if _, err := Append(dir, newMeta, old, []byte(body), relation.Limits{}, WriteOptions{}); !errors.Is(err, relation.ErrShapeMismatch) {
			t.Errorf("body %q: err %v, want ErrShapeMismatch", body, err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("body %q left files behind", body)
		}
	}
	// A ragged appended row is a parse error, not a shape mismatch.
	if _, err := Append(t.TempDir(), newMeta, old, []byte("id,city,zip,grade,note\n1,athens\n"), relation.Limits{}, WriteOptions{}); err == nil || errors.Is(err, relation.ErrShapeMismatch) {
		t.Errorf("ragged row: err %v", err)
	}
}

// TestAppendRejectsDuplicateDictionary: a file whose tail names one
// (attribute, string) pair under two ids passes every CRC — only the
// interner can see it. The appended body must not be interned against
// it (which id would "g0" take?): Append fails with ErrCorrupt and
// writes nothing.
func TestAppendRejectsDuplicateDictionary(t *testing.T) {
	data := testCSV(50)
	meta := metaFor("trips", data)
	path, err := Ingest(t.TempDir(), meta, openCSV(data), relation.Limits{}, WriteOptions{PageRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	foot := file[len(file)-footerSize:]
	tailOff, tailLen, _, err := decodeFooter(foot)
	if err != nil {
		t.Fatal(err)
	}
	tail := file[tailOff : tailOff+tailLen]
	at := bytes.Index(tail, []byte("\x02g1")) // the dictionary entry of grade "g1"
	if at < 0 {
		t.Fatal("no dictionary entry for g1")
	}
	tail[at+2] = '0' // now a second "g0" under grade
	copy(foot, encodeFooter(tailOff, tailLen, crc32.ChecksumIEEE(tail)))
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	newMeta := meta
	newMeta.Hash = "ffff"
	_, err = Append(dir, newMeta, mustOpen(t, path), []byte("id,city,zip,grade,note\n900,athens,z-athens,g0,ok\n"), relation.Limits{}, WriteOptions{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("append over a duplicated dictionary entry: err %v, want ErrCorrupt", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("refused append left %d files behind", len(entries))
	}
}

// TestValueStrings checks the v2 dictionary round trip against the
// resident relation.
func TestValueStrings(t *testing.T) {
	data := testCSV(120)
	meta := metaFor("trips", data)
	meta.ID, meta.Epoch = "abc123", 7
	rel := mustRelation(t, "trips", data)
	path, err := WriteFromRelation(t.TempDir(), meta, rel, WriteOptions{PageRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustOpen(t, path)
	if got := tbl.Meta(); got.ID != "abc123" || got.Epoch != 7 {
		t.Fatalf("meta %+v lost id or epoch", got)
	}
	strs, err := tbl.ValueStrings()
	if err != nil {
		t.Fatal(err)
	}
	if len(strs) != rel.D() {
		t.Fatalf("%d strings, want %d", len(strs), rel.D())
	}
	for v := range strs {
		if strs[v] != rel.ValueString(int32(v)) {
			t.Fatalf("value %d: %q want %q", v, strs[v], rel.ValueString(int32(v)))
		}
	}
}
