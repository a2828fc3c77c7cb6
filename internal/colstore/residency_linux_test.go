//go:build linux && !colstore_readat

package colstore

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"

	"structmine/internal/relation"
	"structmine/internal/task"
)

// mappedRssKB sums the Rss of the process's mappings of path, from
// /proc/self/smaps.
func mappedRssKB(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	kb, found, in := 0, false, false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) >= 5 && strings.Contains(fields[0], "-") && !strings.HasSuffix(fields[0], ":"):
			in = fields[len(fields)-1] == path // a mapping's header line
			found = found || in
		case in && len(fields) == 3 && fields[0] == "Rss:":
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				t.Fatalf("smaps Rss line %q: %v", sc.Text(), err)
			}
			kb += n
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("%s is not mapped", path)
	}
	return kb
}

// TestMappedTailNotResident bounds what a paged table keeps in the
// resident set after Open, a describe and a visit of every attribute's
// value index: at most 64 kB per attribute (the kernel's fault-around
// window maps neighbouring pages on each fault), well under the ≈ 1 MB
// tail of the paged_ingest shape.
func TestMappedTailNotResident(t *testing.T) {
	base, _ := pagedIngestCSV(t, 50000, 0)
	tbl := writeTable(t, t.TempDir(), mustRelation(t, "paged", base), 1)
	if _, err := task.DescribeColumns(tbl); err != nil {
		t.Fatalf("DescribeColumns: %v", err)
	}
	for a := 0; a < tbl.M(); a++ {
		if err := tbl.VisitValues(a, nil, func(int32, int, []relation.Run) error { return nil }); err != nil {
			t.Fatalf("VisitValues(%d): %v", a, err)
		}
	}
	rss := mappedRssKB(t, tbl.Path())
	tailKB := (tbl.mm.size() - tbl.tailOff) >> 10
	t.Logf("mapping Rss %d kB; tail %d kB; m = %d", rss, tailKB, tbl.M())
	if limit := 64 * tbl.M(); rss > limit {
		t.Fatalf("mapping Rss %d kB after Open, describe and a visit of every attribute, want ≤ %d kB (tail %d kB)", rss, limit, tailKB)
	}
}
