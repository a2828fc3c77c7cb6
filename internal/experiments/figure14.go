package experiments

import (
	"fmt"
	"strings"
)

// db2SourceTable maps each joined-relation attribute to its source table
// for the separation check of Figure 14.
func db2SourceTable(attr string) string {
	switch attr {
	case "EmpNo", "FirstName", "LastName", "PhoneNo", "HireYear", "Job",
		"EduLevel", "Sex", "BirthYear", "WorkDepNo":
		return "EMPLOYEE"
	case "DepName", "MgrNo", "AdminDepNo":
		return "DEPARTMENT"
	default:
		return "PROJECT"
	}
}

// Figure14 regenerates the DB2 sample attribute-cluster dendrogram
// (φV = 0, φA = 0) and checks that the grouping separates the source
// tables of the join.
func Figure14(s Scale) Report {
	r := mustDB2().Joined
	g, vc := group(r, 0, 0, false)

	var b strings.Builder
	fmt.Fprintf(&b, "A^D: %d of %d attributes participate in duplicate groups\n", len(g.AttrIdx), r.M())
	fmt.Fprintf(&b, "|C_V^D| = %d duplicate value groups, max info loss = %.3f\n\n",
		len(vc.DuplicateGroups()), g.MaxLoss())
	b.WriteString(g.Dendrogram().ASCII(78))
	b.WriteString("\nmerge sequence:\n")
	b.WriteString(g.Dendrogram().MergeTable())

	// Shape check: cut the dendrogram at 3 clusters and measure how
	// purely the clusters follow the source tables (the paper: "our
	// attribute grouping has separated the attributes of the initial
	// schemas to a large extent").
	purity := -1.0
	if len(g.AttrIdx) >= 3 {
		clusters, err := g.Res.ClustersAt(3)
		if err == nil {
			agree, total := 0, 0
			for _, cl := range clusters {
				counts := map[string]int{}
				for _, obj := range cl {
					counts[db2SourceTable(g.Names[obj])]++
				}
				best := 0
				for _, c := range counts {
					if c > best {
						best = c
					}
				}
				agree += best
				total += len(cl)
			}
			purity = float64(agree) / float64(total)
		}
	}

	// Shape check: the paper's early pairs merge early here too. We
	// require the department pair (WorkDepNo carries DepNo) and the
	// employee-identity attributes to merge below 50% of max loss.
	half := 0.5 * g.MaxLoss()
	deptLoss, deptOK := g.MergeLossOf(attrIdxOf(r.Attrs, "DepName", "MgrNo"))
	empLoss, empOK := g.MergeLossOf(attrIdxOf(r.Attrs, "EmpNo", "FirstName"))
	projLoss, projOK := g.MergeLossOf(attrIdxOf(r.Attrs, "ProjNo", "ProjName"))

	return Report{
		ID:    "figure14",
		Title: "DB2 sample attribute clusters (dendrogram)",
		Paper: "source tables separate almost perfectly (one exception); pairs " +
			"(EmpNo,FirstName), (LastName,PhoneNo), (ProjNo,ProjName), (DeptNo,MgrNo) merge earliest; max loss 0.922",
		Body: b.String(),
		ShapeHolds: []ShapeCheck{
			check("source-table-separation", purity >= 0.8, "3-cut source purity %.2f", purity),
			check("dept-pair-early", deptOK && deptLoss <= half, "DepName+MgrNo merge at %.3f (half=%.3f)", deptLoss, half),
			check("emp-pair-early", empOK && empLoss <= half, "EmpNo+FirstName merge at %.3f", empLoss),
			check("proj-pair-early", projOK && projLoss <= half, "ProjNo+ProjName merge at %.3f", projLoss),
		},
	}
}

func attrIdxOf(names []string, want ...string) []int {
	var out []int
	for _, w := range want {
		for i, n := range names {
			if n == w {
				out = append(out, i)
				break
			}
		}
	}
	return out
}
