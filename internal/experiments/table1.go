package experiments

import (
	"context"
	"fmt"
	"strings"

	"structmine/internal/datagen"
	"structmine/internal/relation"
	"structmine/internal/task"
)

// table1ValueErrors is the per-tuple alteration grid of Tables 1 and 2.
var table1ValueErrors = []int{1, 2, 4, 6, 10}

// table1Found injects dirty tuples, runs the dedup task at φT, and counts
// how many dirty tuples land in the same duplicate group (are associated
// by Phase 3 with the same summary) as their source tuple.
func table1Found(s Scale, phiT float64, nTuples, nValues int, trial int64) int {
	db := mustDB2()
	inj := datagen.InjectTupleErrors(db.Joined, nTuples, nValues, datagen.Typographic, s.Seed*1000+trial)
	res := must(task.RunColumns(context.Background(), relation.AsColumns(inj.Dirty), "dedup", task.Params{PhiT: task.F(phiT)}))
	groupOf := map[int]int{}
	for gi, g := range res.(*task.DedupResult).Groups {
		for _, t := range g {
			groupOf[t] = gi
		}
	}
	found := 0
	for i, dt := range inj.DirtyTuples {
		g, ok := groupOf[dt]
		if h, same := groupOf[inj.Sources[i]]; ok && same && g == h {
			found++
		}
	}
	return found
}

// Table1 regenerates "DB2 Sample results of erroneous tuples": the left
// half sweeps the number of dirty tuples at φT = 0.1, the right half
// sweeps φT at 5 dirty tuples.
func Table1(s Scale) Report {
	var b strings.Builder

	type column struct {
		header string
		found  []int
	}
	runColumn := func(header string, phiT float64, nTuples int, trial int64) column {
		c := column{header: header}
		for _, nv := range table1ValueErrors {
			c.found = append(c.found, table1Found(s, phiT, nTuples, nv, trial))
		}
		return c
	}

	cols := []column{
		runColumn("tuples=5 phiT=0.15", 0.15, 5, 1),
		runColumn("tuples=20 phiT=0.15", 0.15, 20, 2),
		runColumn("tuples=5 phiT=0.1", 0.1, 5, 1),
		runColumn("tuples=5 phiT=0.2", 0.2, 5, 1),
	}

	fmt.Fprintf(&b, "%-12s", "value errs")
	for _, c := range cols {
		fmt.Fprintf(&b, " | %-18s", c.header)
	}
	b.WriteString("\n")
	for vi, nv := range table1ValueErrors {
		fmt.Fprintf(&b, "%-12d", nv)
		for _, c := range cols {
			total := 5
			if strings.Contains(c.header, "tuples=20") {
				total = 20
			}
			fmt.Fprintf(&b, " | %2d / %-13d", c.found[vi], total)
		}
		b.WriteString("\n")
	}

	// Shape checks: (a) near-perfect recovery at 1-2 altered values;
	// (b) monotone (graceful) degradation as alterations grow; (c) a
	// too-tight threshold (φT=0.1) collapses at an alteration level the
	// calibrated threshold still handles — the paper's φ-sensitivity
	// finding under our τ normalization (see DESIGN.md).
	main := cols[0]
	perfect := main.found[0] == 5 && main.found[1] == 5
	degrade := true
	for i := 1; i < len(main.found); i++ {
		if main.found[i] > main.found[i-1] {
			degrade = false
		}
	}
	tight := cols[2]
	tightCollapses := false
	for i := range tight.found {
		if tight.found[i] < main.found[i] {
			tightCollapses = true
		}
	}

	return Report{
		ID:    "table1",
		Title: "Erroneous tuples found (DB2 sample)",
		Paper: "φT=0.1 finds 5/5 for ≤4 altered values, degrades gracefully to 4/5 at 10; " +
			"20 dirty tuples: 20,20,19,17,15; mismatched φT degrades detection",
		Body: b.String(),
		ShapeHolds: []ShapeCheck{
			check("perfect-at-small-alterations", perfect, "found %v for 1-2 altered values", main.found[:2]),
			check("graceful-degradation", degrade, "found %v over value errors %v", main.found, table1ValueErrors),
			check("tight-phi-collapses", tightCollapses, "φT=0.1 found %v vs φT=0.15 %v", tight.found, main.found),
		},
	}
}
