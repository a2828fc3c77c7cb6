package colstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"structmine/internal/datagen"
	"structmine/internal/exec"
	"structmine/internal/primcache"
	"structmine/internal/relation"
	"structmine/internal/store"
	"structmine/internal/task"
)

// assertTableHolds checks that tbl holds exactly want: same schema and
// shape, same dictionary in the same id order, and the same value id in
// every cell.
func assertTableHolds(t *testing.T, what string, tbl *Table, want *relation.Relation) {
	t.Helper()
	if tbl.Name() != want.Name || strings.Join(tbl.AttrNames(), "\x00") != strings.Join(want.Attrs, "\x00") {
		t.Fatalf("%s: schema %s%v, want %s%v", what, tbl.Name(), tbl.AttrNames(), want.Name, want.Attrs)
	}
	if tbl.N() != want.N() || tbl.M() != want.M() || tbl.D() != want.D() {
		t.Fatalf("%s: shape (%d,%d,%d), want (%d,%d,%d)", what,
			tbl.N(), tbl.M(), tbl.D(), want.N(), want.M(), want.D())
	}
	strs, err := tbl.ValueStrings()
	if err != nil {
		t.Fatalf("%s: ValueStrings: %v", what, err)
	}
	for id, str := range strs {
		if v := int32(id); str != want.ValueString(v) || tbl.ValueAttr(v) != want.ValueAttr(v) {
			t.Fatalf("%s: value id %d is %q of attribute %d, want %q of %d", what, id,
				str, tbl.ValueAttr(v), want.ValueString(v), want.ValueAttr(v))
		}
	}
	err = relation.ForEachRow(tbl, relation.AllAttrs(tbl), func(tup int, row []int32) bool {
		for a, v := range row {
			if v != want.Value(tup, a) {
				t.Errorf("%s: cell (%d,%d) holds id %d, want %d", what, tup, a, v, want.Value(tup, a))
				return false
			}
		}
		return true
	})
	if err != nil {
		t.Fatalf("%s: reading the rows: %v", what, err)
	}
	if t.Failed() {
		t.FailNow()
	}
}

// assertSameArtifacts runs every single-dataset task over the table and
// the relation and requires byte-identical artifacts (or, where a task
// refuses the instance, the identical refusal).
func assertSameArtifacts(t *testing.T, what string, tbl *Table, want *relation.Relation) {
	t.Helper()
	ran := 0
	for _, spec := range task.Specs {
		if spec.MultiFile {
			continue
		}
		p := task.Params{}.Normalize(spec.Name)
		artifact := func(c relation.Columns) []byte {
			res, err := task.RunColumns(context.Background(), c, spec.Name, p)
			if err != nil {
				return []byte("error: " + err.Error())
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s: %s: %v", what, spec.Name, err)
			}
			return data
		}
		if g, w := artifact(tbl), artifact(relation.AsColumns(want)); !bytes.Equal(g, w) {
			t.Fatalf("%s: %s artifact diverged:\n%s\nwant\n%s", what, spec.Name, g, w)
		}
		ran++
	}
	if ran != 11 {
		t.Fatalf("%s: compared %d single-dataset tasks, want all 11", what, ran)
	}
}

// TestRelationRoundTrip is the one-format property: a relation written
// to a .col file is what the file reads back. For each input — NULLs,
// quoted and attribute-qualified values, a single column, stripe
// boundaries — CSV → relation → WriteFromRelation → Open must reproduce
// the value ids and the artifact of every single-dataset task byte for
// byte, and so must the post-append state: colstore.Append over the file
// holds what relation.AppendCSV makes of the parsed relation. That
// equivalence is what lets a paged dataset keep its cache keys across
// an append and a restart.
func TestRelationRoundTrip(t *testing.T) {
	// The append body brings values no base row has (a new city and zip,
	// a new grade), repeats old ones, and has NULLs both where the base
	// has them and where it does not.
	appendBody := func(header string, m int) []byte {
		var b strings.Builder
		b.WriteString(header)
		for _, cells := range [][]string{
			{"900", "essen", "z-essen", "g9", ""},
			{"901", "athens", "z-athens", "", "late"},
			{"", "essen", "", "g0", "ok"},
			{"903", "NULL", "z-cairo", "g9", "ok"},
		} {
			b.WriteString(strings.Join(cells[:m], ",") + "\n")
		}
		return []byte(b.String())
	}
	for _, tc := range []struct {
		name     string
		csv      []byte
		pageRows int
	}{
		{"stripes-and-partial-tail", testCSV(300), 64},
		{"exact-stripe-boundary", testCSV(128), 64},
		{"single-page", testCSV(40), 0},
		{"qualified-values", []byte("id,city,zip,grade,note\n1,x,x,x,x\n2,NULL,,x,NULL\n3,\"a,b\",x,,x\n"), 2},
		{"one-column", []byte("id\n1\n2\n\n2\n"), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := WriteOptions{PageRows: tc.pageRows}
			dir := t.TempDir()
			rel := mustRelation(t, "ds.csv", tc.csv)
			meta := metaFor("ds.csv", tc.csv)
			meta.ID = meta.Hash[:12]
			path, err := WriteFromRelation(dir, meta, rel, opt)
			if err != nil {
				t.Fatalf("WriteFromRelation: %v", err)
			}
			tbl := mustOpen(t, path)
			if tbl.Meta() != meta {
				t.Fatalf("meta %+v, want %+v", tbl.Meta(), meta)
			}
			assertTableHolds(t, "written", tbl, rel)
			assertSameArtifacts(t, "written", tbl, rel)

			header := string(tc.csv[:bytes.IndexByte(tc.csv, '\n')+1])
			body := appendBody(header, rel.M())
			want, rows, err := relation.AppendCSV(rel, body, relation.Limits{})
			if err != nil || rows < 3 { // a blank line (one column, empty cell) is no row
				t.Fatalf("relation.AppendCSV: %d rows, %v", rows, err)
			}
			meta2 := meta
			meta2.Hash, meta2.Epoch, meta2.Bytes = fmt.Sprintf("%064x", 2), 1, meta.Bytes+int64(len(body))
			path2, err := Append(dir, meta2, tbl, body, relation.Limits{}, opt)
			if err != nil {
				t.Fatalf("Append: %v", err)
			}
			appended := mustOpen(t, path2)
			assertTableHolds(t, "colstore.Append", appended, want)
			assertSameArtifacts(t, "colstore.Append", appended, want)
		})
	}
}

// TestTaskParity is the one net under the one task pipeline: for a
// generated relation with NULLs and strings repeated across attributes,
// every single-dataset task produces the same artifact bytes whichever
// way the rows are held — in memory behind relation.AsColumns, in a
// colstore table, or in a table read through the primitive cache (cold
// on its first run, warm after) — under a worker budget of 1 and of 4,
// both before and after a 1% append that brings new values.
func TestTaskParity(t *testing.T) {
	const baseRows, appendRows = 400, 4
	full := datagen.NewDBLP(datagen.DBLPConfig{
		Tuples: baseRows + appendRows, Seed: 11, MiscFrac: 0.02, JournalFrac: 0.3,
	}).Project(datagen.ProjectionAttrs())
	var buf bytes.Buffer
	if err := full.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	header := lines[0]
	csv := bytes.Join(lines[:1+baseRows], nil)
	body := append(append([]byte(nil), header...), bytes.Join(lines[1+baseRows:], nil)...)

	opt := WriteOptions{PageRows: 64}
	dir := t.TempDir()
	rel := mustRelation(t, "dblp", csv)
	meta := metaFor("dblp", csv)
	path, err := WriteFromRelation(dir, meta, rel, opt)
	if err != nil {
		t.Fatalf("WriteFromRelation: %v", err)
	}
	tbl := mustOpen(t, path)

	ext, rows, err := relation.AppendCSV(rel, body, relation.Limits{})
	if err != nil || rows != appendRows {
		t.Fatalf("relation.AppendCSV: %d rows, %v", rows, err)
	}
	if ext.D() == rel.D() {
		t.Fatal("the append brought no new value")
	}
	meta2 := meta
	meta2.Hash, meta2.Epoch, meta2.Bytes = fmt.Sprintf("%064x", 2), 1, meta.Bytes+int64(len(body))
	path2, err := Append(dir, meta2, tbl, body, relation.Limits{}, opt)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	tbl2 := mustOpen(t, path2)

	artifact := func(c relation.Columns, name string, workers int) []byte {
		res, err := task.RunColumns(exec.WithWorkers(context.Background(), workers), c, name, task.Params{})
		if err != nil {
			return []byte("error: " + err.Error())
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return data
	}
	prim := primcache.New(1 << 20)
	for _, state := range []struct {
		name string
		rel  *relation.Relation
		tbl  *Table
		meta store.DatasetMeta
	}{
		{"before-append", rel, tbl, meta},
		{"after-append", ext, tbl2, meta2},
	} {
		sources := []struct {
			name string
			c    relation.Columns
		}{
			{"in-memory", relation.AsColumns(state.rel)},
			{"table", state.tbl},
			{"primcache", primcache.Wrap(state.tbl, state.meta.Hash, state.meta.Epoch, prim)},
		}
		ran := 0
		for _, spec := range task.Specs {
			if spec.MultiFile {
				continue
			}
			ran++
			want := artifact(sources[0].c, spec.Name, 1)
			if bytes.HasPrefix(want, []byte("error: ")) {
				t.Fatalf("%s: %s on the reference: %s", state.name, spec.Name, want)
			}
			for _, src := range sources {
				for _, workers := range []int{1, 4} {
					if got := artifact(src.c, spec.Name, workers); !bytes.Equal(got, want) {
						t.Errorf("%s: %s over %s with %d workers diverged:\n%s\nwant\n%s",
							state.name, spec.Name, src.name, workers, got, want)
					}
				}
			}
		}
		if ran != 11 {
			t.Fatalf("%s: compared %d single-dataset tasks, want all 11", state.name, ran)
		}
	}
}

// TestRelationRejectsCorruptPage: a flipped bit in a page leaves Open's
// tail validation intact, so it is the first row read that must catch
// it — building a relation over the table fails with ErrCorrupt rather
// than returning wrong values.
func TestRelationRejectsCorruptPage(t *testing.T) {
	data := testCSV(200)
	path, err := WriteFromRelation(t.TempDir(), metaFor("ds", data), mustRelation(t, "ds", data), WriteOptions{PageRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+5] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	tbl := mustOpen(t, path) // the tail is intact, so Open succeeds
	if _, err := relation.ProjectColumns(tbl, relation.AllAttrs(tbl), tbl.Name(), nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ProjectColumns over a corrupt page = %v, want ErrCorrupt", err)
	}
}

// TestWriteRejectsBadHash: the hash is the file name, so one that is
// empty or would escape the directory is refused before anything is
// written.
func TestWriteRejectsBadHash(t *testing.T) {
	dir := t.TempDir()
	rel := mustRelation(t, "ds", testCSV(3))
	for _, hash := range []string{"", "../escape", "a/b"} {
		if _, err := WriteFromRelation(dir, store.DatasetMeta{Hash: hash}, rel, WriteOptions{}); err == nil {
			t.Fatalf("hash %q accepted", hash)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("rejected writes left %d files behind", len(entries))
	}
}
