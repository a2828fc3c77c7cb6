package colstore

import (
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
			_ = tbl.VisitValues(a, func(v int32, count int, runs []relation.Run) error {
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
