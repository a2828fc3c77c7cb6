package experiments

import (
	"fmt"
	"math"
	"strings"

	"structmine/internal/fd"
	"structmine/internal/fdrank"
	"structmine/internal/relation"
)

// Figure10 regenerates the paper's worked example (Figures 4-10 and the
// Section 7 numbers): the 5-tuple relation of Figure 4, its duplicate
// value groups {a,1} and {2,x}, the matrix F of Figure 9, the attribute
// dendrogram of Figure 10 (merges at ≈0.158 and ≈0.52), and the FD-RANK
// outcome (C→B ranked above A→B at ψ=0.5).
func Figure10(Scale) Report {
	b := relation.NewBuilder("figure4", []string{"A", "B", "C"})
	b.MustAdd("a", "1", "p")
	b.MustAdd("a", "1", "r")
	b.MustAdd("w", "2", "x")
	b.MustAdd("y", "2", "x")
	b.MustAdd("z", "2", "x")
	r := b.Relation()

	g, vc := group(r, 0, 0, false)

	var body strings.Builder
	fmt.Fprintf(&body, "relation (Figure 4): %d tuples, %d values\n\n", r.N(), r.D())
	body.WriteString("duplicate value groups C_V^D (Figure 7):\n")
	var groups []string
	for _, gi := range vc.DuplicateGroups() {
		var labels []string
		for _, v := range vc.Groups[gi].Values {
			labels = append(labels, r.ValueLabel(v))
		}
		groups = append(groups, "{"+strings.Join(labels, ",")+"}")
	}
	fmt.Fprintf(&body, "  %s\n\n", strings.Join(groups, "  "))

	rows, attrIdx := vc.MatrixF()
	body.WriteString("matrix F (Figure 9):\n")
	for i, row := range rows {
		fmt.Fprintf(&body, "  %s: %v\n", r.Attrs[attrIdx[i]], row)
	}

	body.WriteString("\nattribute dendrogram (Figure 10):\n")
	body.WriteString(g.Dendrogram().ASCII(60))
	body.WriteString(g.Dendrogram().MergeTable())

	fds := []fd.FD{
		{LHS: fd.NewAttrSet(0), RHS: fd.NewAttrSet(1)}, // A→B
		{LHS: fd.NewAttrSet(2), RHS: fd.NewAttrSet(1)}, // C→B
	}
	ranked := fdrank.Rank(fds, g, 0.5)
	body.WriteString("\nFD-RANK (ψ=0.5):\n")
	for i, rf := range ranked {
		fmt.Fprintf(&body, "  %d. %s  rank=%.4f\n", i+1, rf.FD.Format(r.Attrs), rf.Rank)
	}

	firstLoss, secondLoss := math.NaN(), math.NaN()
	if len(g.Res.Merges) == 2 {
		firstLoss = g.Res.Merges[0].Loss
		secondLoss = g.Res.Merges[1].Loss
	}
	cvdOK := len(groups) == 2 &&
		strings.Contains(strings.Join(groups, " "), "A=a") &&
		strings.Contains(strings.Join(groups, " "), "C=x")
	rankOK := len(ranked) == 2 && ranked[0].FD.LHS == fd.NewAttrSet(2)

	return Report{
		ID:    "figure10",
		Title: "Worked example (Figures 4-10, Section 7)",
		Paper: "C_V^D = {a,1},{2,x}; B+C merge at ~0.1, A joins at ~0.52 (max loss 0.52); " +
			"with ψ=0.5 only C→B updates (0.26 cut) and ranks first",
		Body: body.String(),
		ShapeHolds: []ShapeCheck{
			check("duplicate-groups", cvdOK, "C_V^D = %v", groups),
			check("first-merge-loss", math.Abs(firstLoss-0.15768) < 1e-3,
				"B+C merge at %.4f (paper axis: ~0.1; exact eq.3 value 0.1577)", firstLoss),
			check("final-merge-loss", math.Abs(secondLoss-0.5155) < 2e-3,
				"A joins at %.4f (paper: ~0.52)", secondLoss),
			check("c-to-b-ranks-first", rankOK, "ranking: %s", topLabels(ranked, r.Attrs)),
		},
	}
}
