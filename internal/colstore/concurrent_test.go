package colstore

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"structmine/internal/exec"
	"structmine/internal/relation"
)

// TestConcurrentReaders hammers one open Table from many goroutines
// over every read path at once — single-attribute and full-stripe
// ReadStripe calls, and the value index — while the validation bitmap
// is cold, so first-touch CRC races are exercised. Run under -race (CI
// does); results must match a serial baseline exactly.
func TestConcurrentReaders(t *testing.T) {
	data := testCSV(1500)
	meta := metaFor("conc", data)
	rel := mustRelation(t, "conc", data)
	path, err := WriteFromRelation(t.TempDir(), meta, rel, WriteOptions{PageRows: 64})
	if err != nil {
		t.Fatalf("WriteFromRelation: %v", err)
	}
	tbl := mustOpen(t, path)
	m := tbl.M()

	// Serial baseline from a second, independently validated handle.
	base := mustOpen(t, path)
	want := make([][][]int32, base.NumPages())
	var baseDst [][]int32
	for p := range want {
		want[p] = make([][]int32, m)
		for a := 0; a < m; a++ {
			got, err := base.ReadStripe(p, []int{a}, baseDst)
			if err != nil {
				t.Fatalf("baseline ReadStripe(%d,[%d]): %v", p, a, err)
			}
			baseDst = got
			want[p][a] = append([]int32(nil), got[0]...)
		}
	}
	wantCounts := make([]map[int32]int, m)
	for a := 0; a < m; a++ {
		wantCounts[a] = map[int32]int{}
		err := base.VisitValues(a, nil, func(v int32, count int, runs []relation.Run) error {
			wantCounts[a][v] = count
			return nil
		})
		if err != nil {
			t.Fatalf("baseline VisitValues(%d): %v", a, err)
		}
	}

	const readers = 9
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	allAttrs := make([]int, m)
	for a := range allAttrs {
		allAttrs[a] = a
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0: // single-attribute reads with a reused dst
				var dst [][]int32
				for p := 0; p < tbl.NumPages(); p++ {
					for a := 0; a < m; a++ {
						got, err := tbl.ReadStripe(p, []int{a}, dst)
						if err != nil {
							errc <- err
							return
						}
						dst = got
						if !reflect.DeepEqual(got[0], want[p][a]) {
							errc <- fmt.Errorf("reader %d: page (%d,%d) mismatch", g, p, a)
							return
						}
					}
				}
			case 1: // batched stripe reads
				var cols [][]int32
				for p := tbl.NumPages() - 1; p >= 0; p-- {
					got, err := tbl.ReadStripe(p, allAttrs, cols)
					if err != nil {
						errc <- err
						return
					}
					cols = got
					for a := 0; a < m; a++ {
						if !reflect.DeepEqual(cols[a], want[p][a]) {
							errc <- fmt.Errorf("reader %d: stripe (%d,%d) mismatch", g, p, a)
							return
						}
					}
				}
			case 2: // value-index walks
				for a := 0; a < m; a++ {
					counts := map[int32]int{}
					err := tbl.VisitValues(a, nil, func(v int32, count int, runs []relation.Run) error {
						counts[v] = count
						return nil
					})
					if err != nil {
						errc <- err
						return
					}
					if !reflect.DeepEqual(counts, wantCounts[a]) {
						errc <- fmt.Errorf("reader %d: attr %d index mismatch", g, a)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestScanStripesParallelMatchesSerial pins the fanned-out scan to the
// serial one on both Columns implementations across worker budgets.
func TestScanStripesParallelMatchesSerial(t *testing.T) {
	// 6000 rows × 3 attributes clears the ColScan cutoff, so the larger
	// budgets genuinely fan out instead of collapsing to serial.
	data := testCSV(6000)
	meta := metaFor("scan", data)
	rel := mustRelation(t, "scan", data)
	path, err := WriteFromRelation(t.TempDir(), meta, rel, WriteOptions{PageRows: 32})
	if err != nil {
		t.Fatalf("WriteFromRelation: %v", err)
	}
	tbl := mustOpen(t, path)

	for _, src := range []struct {
		name string
		c    relation.Columns
	}{{"paged", tbl}, {"resident", relation.AsColumns(rel)}} {
		attrs := []int{0, 2, 4}
		collect := func(workers int) [][][]int32 {
			ctx := exec.WithWorkers(context.Background(), workers)
			out := make([][][]int32, src.c.NumPages())
			err := relation.ScanStripes(ctx, src.c, attrs, func(w, p int, cols [][]int32) error {
				cp := make([][]int32, len(cols))
				for i := range cols {
					cp[i] = append([]int32(nil), cols[i]...)
				}
				out[p] = cp
				return nil
			})
			if err != nil {
				t.Fatalf("%s ScanStripes(workers=%d): %v", src.name, workers, err)
			}
			return out
		}
		serial := collect(1)
		for _, workers := range []int{2, 4, 8} {
			if got := collect(workers); !reflect.DeepEqual(got, serial) {
				t.Fatalf("%s: ScanStripes at %d workers diverges from serial", src.name, workers)
			}
		}
	}
}

// TestScanStripesPropagatesError checks a failing visitor cancels the
// scan and surfaces its error.
func TestScanStripesPropagatesError(t *testing.T) {
	rel := mustRelation(t, "errs", testCSV(300))
	c := relation.AsColumns(rel)
	boom := fmt.Errorf("boom")
	ctx := exec.WithWorkers(context.Background(), 4)
	err := relation.ScanStripes(ctx, c, []int{0, 1}, func(w, p int, cols [][]int32) error {
		return boom
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("ScanStripes error = %v, want boom", err)
	}
}
