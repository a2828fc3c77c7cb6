package experiments

import (
	"fmt"
	"strings"

	"structmine/internal/attrs"
	"structmine/internal/fd"
	"structmine/internal/fdrank"
	"structmine/internal/measures"
	"structmine/internal/relation"
	"structmine/internal/values"
)

// Table3 regenerates the DB2 sample FD ranking: FDEP discovery, Maier
// minimum cover, FD-RANK at ψ = 0.5, and RAD/RTR for the top-ranked
// dependencies (the paper's Table 3 plus the surrounding §8.1.4 counts).
func Table3(s Scale) Report {
	db := mustDB2()
	r := db.Joined

	fds, err := fd.FDEP(r)
	if err != nil {
		panic(err) // 19 attributes, cannot exceed the arity bound
	}
	cover := fd.MinCover(fds)

	vc := values.ClusterRelation(r, 0.0, 4)
	g := attrs.Group(r, vc)
	ranked := fdrank.Rank(cover, g, 0.5)

	var b strings.Builder
	fmt.Fprintf(&b, "FDEP discovered %d minimal FDs; minimum cover has %d\n", len(fds), len(cover))
	fmt.Fprintf(&b, "(paper: 106 discovered, 14 in cover)\n\n")
	fmt.Fprintf(&b, "%-4s %-56s %8s %8s %8s %8s\n", "#", "FD (ψ=0.5)", "rank", "RAD", "RADw", "RTR")
	top := ranked
	if len(top) > 6 {
		top = top[:6]
	}
	radws := make([]float64, 0, len(top))
	rtrs := make([]float64, 0, len(top))
	for i, rf := range top {
		ix := rf.FD.Attrs().Attrs()
		rad := measures.RAD(r, ix)
		radw, err := measures.RADWeighted(relation.AsColumns(r), ix)
		if err != nil {
			panic(err) // an in-memory relation has no failing reads
		}
		rtr := measures.RTR(r, ix)
		radws = append(radws, radw)
		rtrs = append(rtrs, rtr)
		fmt.Fprintf(&b, "%-4d %-56s %8.3f %8.3f %8.3f %8.3f\n", i+1, rf.FD.Format(r.Attrs), rf.Rank, rad, radw, rtr)
	}

	// Shape checks: (a) the cover is far smaller than the discovered
	// set; (b) the top-ranked FD involves the department attributes (the
	// paper's #1 is [DeptNo]→[DeptName,MgrNo]); (c) the top FDs carry
	// high duplication — compare against the paper's 0.87-0.97 RAD and
	// 0.80-0.92 RTR using the width-weighted RAD variant, which matches
	// the paper's scale (see DESIGN.md on the RAD ambiguity).
	coverSmaller := len(cover) < len(fds) && len(cover) > 0
	topDept := false
	if len(ranked) > 0 {
		lbl := ranked[0].FD.Format(r.Attrs)
		topDept = strings.Contains(lbl, "Dep") || strings.Contains(lbl, "Mgr")
	}
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
			check("cover-compresses", coverSmaller, "%d FDs → %d in cover", len(fds), len(cover)),
			check("department-ranks-first", topDept, "top FD: %s", safeTopLabel(ranked, r.Attrs)),
			check("top-fds-high-duplication", highDup, "RADw %v RTR %v", fmtF(radws), fmtF(rtrs)),
		},
	}
}

func safeTopLabel(ranked []fdrank.Ranked, names []string) string {
	if len(ranked) == 0 {
		return "(none)"
	}
	return ranked[0].FD.Format(names)
}

func fmtF(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
