package colstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"structmine/internal/relation"
)

// FuzzOpen hammers the file decoder: arbitrary bytes must either fail
// Open cleanly or yield a table whose every page and index entry can be
// visited without a panic or an out-of-bounds access, and whose
// marginals from Open equal a walk of its value index. Seeds include a
// valid file and targeted mutations of its header, tail, and footer.
func FuzzOpen(f *testing.F) {
	data := testCSV(40)
	meta := metaFor("fuzz", data)
	path, err := Ingest(f.TempDir(), meta, openCSV(data), relation.Limits{}, WriteOptions{PageRows: 16})
	if err != nil {
		f.Fatalf("Ingest: %v", err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:headerSize])
	f.Add(valid[:len(valid)-footerSize])
	for _, off := range []int{0, 4, 8, 12, 16, 20, 24, 28, len(valid) / 2, len(valid) - footerSize, len(valid) - 8, len(valid) - 1} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xff
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		p := filepath.Join(t.TempDir(), "in.col")
		if err := os.WriteFile(p, in, 0o644); err != nil {
			t.Skip()
		}
		tbl, err := Open(p)
		if err != nil {
			return // rejected cleanly
		}
		defer tbl.Close()
		var buf [][]int32
		for pg := 0; pg < tbl.NumPages(); pg++ {
			for a := 0; a < tbl.M(); a++ {
				if buf, err = tbl.ReadStripe(pg, []int{a}, buf); err != nil {
					return
				}
			}
		}
		for a := 0; a < tbl.M(); a++ {
			_ = tbl.VisitValues(a, nil, func(v int32, count int, runs []relation.Run) error {
				_ = tbl.ValueAttr(v)
				return nil
			})
			_ = tbl.NullCount(a)
			// Open's validation pass computed every marginal; a walk
			// of the index it validated must agree bit for bit.
			got, err := tbl.Marginal(a)
			if err != nil {
				t.Fatalf("Marginal(%d): %v", a, err)
			}
			want, err := relation.ComputeAttrMarginal(tbl, a)
			if err != nil {
				t.Fatalf("attribute %d: Open validated an index VisitValues rejects: %v", a, err)
			}
			if got != want {
				t.Fatalf("attribute %d: Open's marginal %+v, index walk %+v", a, got, want)
			}
		}
		_, _ = tbl.ValueStrings()
	})
}

// FuzzAppend checks the spliced tail against the writer's own: the
// fuzz bytes pick m attributes, a page size, a split row and the cells
// (0 is NULL, else one of 31 strings per attribute), and appending the
// rows after the split to a file of the rows before it must give the
// bytes of a fresh write of all of them — whichever stripe the split
// falls in, whichever runs cross it, however many values are new — and
// a file Open accepts.
func FuzzAppend(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		m, pageRows := 1+int(in[0]%4), 1+int(in[1]%8)
		cells := in[3:]
		rows := min(len(cells)/m, 256)
		split := int(in[2]) % (rows + 1)
		var csv bytes.Buffer
		for a := 0; a < m; a++ {
			if a > 0 {
				csv.WriteByte(',')
			}
			fmt.Fprintf(&csv, "a%d", a)
		}
		csv.WriteByte('\n')
		header := csv.Len()
		cut := header
		for t := 0; t < rows; t++ {
			if t == split {
				cut = csv.Len()
			}
			for a := 0; a < m; a++ {
				if a > 0 {
					csv.WriteByte(',')
				}
				if c := cells[t*m+a] % 32; c > 0 {
					fmt.Fprintf(&csv, "v%d", c)
				}
			}
			csv.WriteByte('\n')
		}
		data := csv.Bytes()
		if split == rows {
			cut = len(data)
		}
		head := data[:cut]
		body := append(append([]byte(nil), data[:header]...), data[cut:]...)

		opt := WriteOptions{PageRows: pageRows}
		oldMeta := metaFor("fuzz", head)
		oldMeta.ID = "fuzz-id"
		oldPath, err := WriteFromRelation(t.TempDir(), oldMeta, mustRelation(t, "fuzz", head), opt)
		if err != nil {
			t.Fatalf("WriteFromRelation(head): %v", err)
		}
		old := mustOpen(t, oldPath)
		meta := metaFor("fuzz", data)
		meta.ID, meta.Epoch = "fuzz-id", 1
		gotPath, err := Append(t.TempDir(), meta, old, body, relation.Limits{}, opt)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		wantPath, err := WriteFromRelation(t.TempDir(), meta, mustRelation(t, "fuzz", data), opt)
		if err != nil {
			t.Fatalf("WriteFromRelation(all): %v", err)
		}
		got, _ := os.ReadFile(gotPath)
		want, _ := os.ReadFile(wantPath)
		if len(got) == 0 || !bytes.Equal(got, want) {
			t.Fatalf("%d × %d split at %d, %d rows a page: append diverges from a fresh write (%d vs %d bytes)",
				rows, m, split, pageRows, len(got), len(want))
		}
		mustOpen(t, gotPath)
	})
}
