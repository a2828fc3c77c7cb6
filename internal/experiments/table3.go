package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"structmine/internal/measures"
	"structmine/internal/relation"
	"structmine/internal/task"
)

// Table3 regenerates the DB2 sample FD ranking — the paper's Table 3
// plus the surrounding §8.1.4 counts — as the rank-fds artifact:
// minimal-FD discovery, Maier minimum cover, FD-RANK at ψ = 0.5 against
// the Figure 14 grouping, RAD/RTR per dependency, and RADw added for the
// top-ranked ones. The paper discovers with FDEP; TANE returns the same
// minimal set, so the header keeps the paper's name for it.
func Table3(s Scale) Report {
	r := mustDB2().Joined
	c := relation.AsColumns(r)
	res := must(task.RunColumns(context.Background(), c, "rank-fds", task.Params{})).(*task.RankFDsResult)

	var b strings.Builder
	fmt.Fprintf(&b, "FDEP discovered %d minimal FDs; minimum cover has %d\n", res.NumMinimal, res.CoverSize)
	fmt.Fprintf(&b, "(paper: 106 discovered, 14 in cover)\n\n")
	fmt.Fprintf(&b, "%-4s %-56s %8s %8s %8s %8s\n", "#", "FD (ψ=0.5)", "rank", "RAD", "RADw", "RTR")
	top := res.Ranked[:min(6, len(res.Ranked))]
	radws := make([]float64, 0, len(top))
	rtrs := make([]float64, 0, len(top))
	for i, rf := range top {
		radw := must(measures.RADWeighted(c, must(r.AttrIndices(slices.Concat(rf.FD.LHS, rf.FD.RHS)))))
		radws = append(radws, radw)
		rtrs = append(rtrs, rf.RTR)
		fmt.Fprintf(&b, "%-4d %-56s %8.3f %8.3f %8.3f %8.3f\n", i+1, rf.FD.Label, rf.Rank, rf.RAD, radw, rf.RTR)
	}

	// Shape checks: (a) the cover is far smaller than the discovered
	// set; (b) the top-ranked FD involves the department attributes (the
	// paper's #1 is [DeptNo]→[DeptName,MgrNo]); (c) the top FDs carry
	// high duplication — compare against the paper's 0.87-0.97 RAD and
	// 0.80-0.92 RTR using the width-weighted RAD variant, which matches
	// the paper's scale (see DESIGN.md on the RAD ambiguity).
	coverSmaller := res.CoverSize < res.NumMinimal && res.CoverSize > 0
	topLabel := "(none)"
	if len(top) > 0 {
		topLabel = top[0].FD.Label
	}
	topDept := strings.Contains(topLabel, "Dep") || strings.Contains(topLabel, "Mgr")
	highDup := len(radws) > 0
	for i := range radws {
		if i < 4 && (radws[i] < 0.6 || rtrs[i] < 0.6) {
			highDup = false
		}
	}

	return Report{
		ID:    "table3",
		Title: "Ranked functional dependencies with RAD/RTR (DB2 sample)",
		Paper: "top ranked: [DeptNo]→[DeptName,MgrNo], [DeptName]→[MgrNo], [EmpNo]→(identity attrs), " +
			"[ProjNo]→(project attrs); RAD 0.87-0.97, RTR 0.80-0.92",
		Body: b.String(),
		ShapeHolds: []ShapeCheck{
			check("cover-compresses", coverSmaller, "%d FDs → %d in cover", res.NumMinimal, res.CoverSize),
			check("department-ranks-first", topDept, "top FD: %s", topLabel),
			check("top-fds-high-duplication", highDup, "RADw %v RTR %v", fmtF(radws), fmtF(rtrs)),
		},
	}
}

func fmtF(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
