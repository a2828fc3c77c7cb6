package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"structmine/internal/relation"
	"structmine/internal/task"
)

func TestFigure10ShapeHolds(t *testing.T) {
	rep := Figure10(QuickScale())
	for _, c := range rep.ShapeHolds {
		if !c.OK {
			t.Errorf("shape check failed: %s (%s)\n%s", c.Name, c.Note, rep.Body)
		}
	}
}

func TestTable1ShapeHolds(t *testing.T) {
	rep := Table1(QuickScale())
	if rep.ID != "table1" || rep.Body == "" {
		t.Fatalf("malformed report: %+v", rep)
	}
	for _, c := range rep.ShapeHolds {
		if !c.OK {
			t.Errorf("shape check failed: %s (%s)\n%s", c.Name, c.Note, rep.Body)
		}
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	rep := Table2(QuickScale())
	for _, c := range rep.ShapeHolds {
		if !c.OK {
			t.Errorf("shape check failed: %s (%s)\n%s", c.Name, c.Note, rep.Body)
		}
	}
}

func TestFigure14ShapeHolds(t *testing.T) {
	rep := Figure14(QuickScale())
	for _, c := range rep.ShapeHolds {
		if !c.OK {
			t.Errorf("shape check failed: %s (%s)\n%s", c.Name, c.Note, rep.Body)
		}
	}
	if !strings.Contains(rep.Body, "EmpNo") {
		t.Error("dendrogram should show attribute names")
	}
}

func TestTable3ShapeHolds(t *testing.T) {
	rep := Table3(QuickScale())
	for _, c := range rep.ShapeHolds {
		if !c.OK {
			t.Errorf("shape check failed: %s (%s)\n%s", c.Name, c.Note, rep.Body)
		}
	}
}

func TestDBLPSuiteShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("DBLP pipeline in -short mode")
	}
	for _, rep := range DBLPSuite(QuickScale()) {
		for _, c := range rep.ShapeHolds {
			if !c.OK {
				t.Errorf("%s: shape check failed: %s (%s)\n%s", rep.ID, c.Name, c.Note, rep.Body)
			}
		}
	}
}

func TestReportString(t *testing.T) {
	rep := Report{
		ID: "x", Title: "T", Paper: "p", Body: "b\n",
		ShapeHolds: []ShapeCheck{{Name: "n", OK: true, Note: "fine"}},
	}
	s := rep.String()
	for _, want := range []string{"== x: T ==", "paper: p", "b", "[PASS] n"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in %q", want, s)
		}
	}
	if !rep.OK() {
		t.Error("OK() should be true")
	}
	rep.ShapeHolds = append(rep.ShapeHolds, ShapeCheck{Name: "bad", OK: false})
	if rep.OK() {
		t.Error("OK() should be false with a failing check")
	}
}

// TestDB2TablesMatchServedArtifacts: on the DB2 sample the paper's
// tables are what the daemon serves — every printed row of Table 3 is
// the rank-fds artifact's row (label, rank, RAD, RTR), and Figure 14's
// merge sequence and dendrogram are the group-attrs artifact's.
func TestDB2TablesMatchServedArtifacts(t *testing.T) {
	ctx := context.Background()
	r := mustDB2().Joined
	c := relation.AsColumns(r)

	served := must(task.RunColumns(ctx, c, "rank-fds", task.Params{})).(*task.RankFDsResult).Ranked
	rows := 0
	for _, line := range strings.Split(Table3(QuickScale()).Body, "\n") {
		f := strings.Fields(line)
		if len(f) != 6 || f[0] != fmt.Sprint(rows+1) {
			continue // the counts and the header
		}
		s := served[rows]
		want := []string{s.FD.Label, fmt.Sprintf("%.3f", s.Rank), fmt.Sprintf("%.3f", s.RAD), fmt.Sprintf("%.3f", s.RTR)}
		if got := []string{f[1], f[2], f[3], f[5]}; !reflect.DeepEqual(got, want) {
			t.Errorf("Table 3 row %d: %v, rank-fds serves %v", rows+1, got, want)
		}
		rows++
	}
	if rows != 6 {
		t.Errorf("Table 3 printed %d ranked rows, want 6", rows)
	}

	ga := must(task.RunColumns(ctx, c, "group-attrs", task.Params{})).(*task.GroupAttrsResult)
	g, _ := group(r, 0, 0, false)
	if len(ga.Merges) != len(g.Res.Merges) || len(ga.Merges) == 0 {
		t.Fatalf("Figure 14 has %d merges, group-attrs %d", len(g.Res.Merges), len(ga.Merges))
	}
	for i, m := range g.Res.Merges {
		if task.MergeStep(m) != ga.Merges[i] {
			t.Errorf("Figure 14 merge %d: %+v, group-attrs serves %+v", i, m, ga.Merges[i])
		}
	}
	if !strings.Contains(Figure14(QuickScale()).Body, ga.Dendrogram) {
		t.Error("Figure 14 does not draw the dendrogram group-attrs serves")
	}
}
