package experiments

import (
	"context"
	"fmt"
	"strings"

	"structmine/internal/datagen"
	"structmine/internal/relation"
	"structmine/internal/task"
)

// table2Found injects dirty tuples, double-clusters (tuples at φT, then
// values over the tuple clusters at φV), and returns the average number
// of altered values per dirty tuple whose injected value was associated
// with the same (non-degenerate) value group as the value it replaced.
func table2Found(s Scale, phiT, phiV float64, nTuples, nValues int, trial int64) float64 {
	db := mustDB2()
	inj := datagen.InjectTupleErrors(db.Joined, nTuples, nValues, datagen.Typographic, s.Seed*1000+trial)
	r := inj.Dirty

	vc := must(task.ClusterValues(context.Background(), relation.AsColumns(r), phiT, phiV, 4, true))

	placed := 0
	for i := range inj.DirtyTuples {
		for j, a := range inj.AlteredAttrs[i] {
			vErr, ok1 := r.ValueID(a, inj.NewValues[i][j])
			vOrig, ok2 := r.ValueID(a, inj.ReplacedValues[i][j])
			if !ok1 || !ok2 {
				continue
			}
			g := vc.Assign[vErr].Cluster
			if g >= 0 && g == vc.Assign[vOrig].Cluster && len(vc.Groups[g].Values) < r.D()/3 {
				placed++
			}
		}
	}
	return float64(placed) / float64(nTuples)
}

// Table2 regenerates "DB2 Sample results of erroneous values": average
// correctly-placed dirty values per tuple.
//
// The mechanism is the paper's "combine the results of tuple and
// attribute value clustering": tuple clustering at a coarse φT collapses
// each entity (department / project / employee block) into one tuple
// cluster; a dirty value then has exactly the same cluster-conditional
// distribution as the value it replaced whenever that value is
// entity-determined, and φV = 0 clusters them together. Values of
// low-cardinality attributes (Sex, EduLevel, ...) spread across entities
// and cannot be placed this way — the same ceiling the paper's 9/10 row
// shows. The right columns lower φT, showing that a too-fine tuple model
// breaks the placement (the paper's φ-sensitivity result).
func Table2(s Scale) Report {
	const phiV = 0.0
	var b strings.Builder

	type column struct {
		header string
		phiT   float64
		found  []float64
	}
	runColumn := func(header string, phiT float64, nTuples int, trial int64) column {
		c := column{header: header, phiT: phiT}
		for _, nv := range table1ValueErrors {
			c.found = append(c.found, table2Found(s, phiT, phiV, nTuples, nv, trial))
		}
		return c
	}

	cols := []column{
		runColumn("tuples=5 phiT=1.0", 1.0, 5, 1),
		runColumn("tuples=20 phiT=1.0", 1.0, 20, 2),
		runColumn("tuples=10 phiT=0.7", 0.7, 10, 3),
		runColumn("tuples=10 phiT=0.5", 0.5, 10, 3),
	}

	fmt.Fprintf(&b, "%-12s", "value errs")
	for _, c := range cols {
		fmt.Fprintf(&b, " | %-18s", c.header)
	}
	b.WriteString("\n")
	for vi, nv := range table1ValueErrors {
		fmt.Fprintf(&b, "%-12d", nv)
		for _, c := range cols {
			fmt.Fprintf(&b, " | %5.1f / %-10d", c.found[vi], nv)
		}
		b.WriteString("\n")
	}

	main := cols[0]
	growing := main.found[len(main.found)-1] > main.found[0]
	exactAtOne := main.found[0] >= 0.8
	fineSum, mainSum := 0.0, 0.0
	for i := range main.found {
		mainSum += main.found[i]
		fineSum += cols[3].found[i]
	}

	return Report{
		ID:    "table2",
		Title: "Erroneous values correctly placed (DB2 sample)",
		Paper: "5 dirty tuples: 1,2,4,5,9 placed for 1,2,4,6,10 alterations; placement grows with " +
			"alterations and degrades when φ mismatches the error level",
		Body: b.String(),
		ShapeHolds: []ShapeCheck{
			check("grows-with-alterations", growing,
				"placed %.1f at 1 alteration vs %.1f at 10", main.found[0], main.found[len(main.found)-1]),
			check("exact-at-one-alteration", exactAtOne, "placed %.1f for 1 alteration", main.found[0]),
			check("finer-model-degrades", fineSum < mainSum,
				"φT=0.5 places %.1f total vs %.1f at φT=1.0", fineSum, mainSum),
		},
	}
}
