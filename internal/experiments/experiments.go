// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 8) over the synthetic DB2 sample and DBLP data
// sets. Each driver returns a Report with the same rows/series the paper
// prints; cmd/experiments composes them into EXPERIMENTS.md and the
// root-level benchmarks time them.
//
// Absolute numbers differ from the paper (the data is synthetic; see
// DESIGN.md for the substitutions), but the shapes under test are the
// paper's: graceful degradation of error detection (Tables 1-2),
// source-table separation in the DB2 dendrogram (Figure 14), the
// department attributes ranking first (Table 3), the NULL-heavy
// attribute group (Figure 15), a giant conference partition plus a
// journal partition plus a tiny misc partition (Table 4, Figures 16-18),
// and RAD/RTR ≈ 1 for the all-NULL dependencies of Table 5.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"structmine/internal/attrs"
	"structmine/internal/datagen"
	"structmine/internal/fd"
	"structmine/internal/relation"
	"structmine/internal/task"
	"structmine/internal/values"
)

// Scale controls experiment size so tests and benchmarks can run the
// same drivers at reduced cost.
type Scale struct {
	// DBLPTuples sizes the synthetic DBLP instance (paper: 50000).
	DBLPTuples int
	// Seed drives data generation and error injection.
	Seed int64
}

// PaperScale reproduces the paper's instance sizes.
func PaperScale() Scale { return Scale{DBLPTuples: 50000, Seed: 1} }

// QuickScale is small enough for unit tests.
func QuickScale() Scale { return Scale{DBLPTuples: 2000, Seed: 1} }

// Report is one regenerated table or figure.
type Report struct {
	ID    string // "table1", "figure14", ...
	Title string
	// Paper summarizes what the paper reports for this artifact.
	Paper string
	// Body is the regenerated content (text table or ASCII dendrogram).
	Body string
	// ShapeHolds records the automated shape checks that passed/failed.
	ShapeHolds []ShapeCheck
}

// ShapeCheck is one pass/fail comparison against the paper's qualitative
// result.
type ShapeCheck struct {
	Name string
	OK   bool
	Note string
}

func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(&b, "paper: %s\n\n", r.Paper)
	b.WriteString(r.Body)
	if len(r.ShapeHolds) > 0 {
		b.WriteString("\nshape checks:\n")
		for _, c := range r.ShapeHolds {
			status := "PASS"
			if !c.OK {
				status = "FAIL"
			}
			fmt.Fprintf(&b, "  [%s] %s: %s\n", status, c.Name, c.Note)
		}
	}
	return b.String()
}

// OK reports whether all shape checks passed.
func (r Report) OK() bool {
	for _, c := range r.ShapeHolds {
		if !c.OK {
			return false
		}
	}
	return true
}

// mustDB2 builds the synthetic DB2 sample (deterministic, no error paths
// reachable).
func mustDB2() *datagen.DB2 {
	db, err := datagen.NewDB2Sample()
	if err != nil {
		panic(err)
	}
	return db
}

// dblp generates the synthetic DBLP instance of a scale.
func dblp(s Scale) *relation.Relation {
	return datagen.NewDBLP(datagen.DBLPConfig{
		Tuples:      s.DBLPTuples,
		Seed:        s.Seed,
		MiscFrac:    129.0 / 50000,
		JournalFrac: 0.28,
	})
}

// must unwraps a pipeline step over an in-memory relation, which has no
// failing reads.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// group is task.GroupAttributes at the paper's branching factor B = 4,
// with the table's φT and φV.
func group(r *relation.Relation, phiT, phiV float64, double bool) (*attrs.Grouping, *values.Clustering) {
	ctx := context.Background()
	g, vc, err := task.GroupAttributes(ctx, fd.NewSets(ctx, relation.AsColumns(r)), phiT, phiV, 4, double)
	if err != nil {
		panic(err) // an in-memory relation has no failing reads
	}
	return g, vc
}

// All runs every experiment at the given scale, in paper order.
func All(s Scale) []Report {
	reports := []Report{
		Figure10(s),
		Table1(s),
		Table2(s),
		Figure14(s),
		Table3(s),
	}
	reports = append(reports, DBLPSuite(s)...)
	return reports
}

func check(name string, ok bool, format string, args ...interface{}) ShapeCheck {
	return ShapeCheck{Name: name, OK: ok, Note: fmt.Sprintf(format, args...)}
}
