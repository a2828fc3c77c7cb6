// Command structmine runs the paper's structure-discovery tasks over a
// CSV file (header row first, empty fields = NULL).
//
// Usage:
//
//	structmine <task> [flags] <file.csv ...>
//
// Tasks (this list mirrors internal/task.Specs; a test keeps them in
// sync):
//
//	describe     print instance statistics and per-attribute profiles
//	report       full structure report (profiles, duplicates, ranked FDs) (-phit -psi)
//	dedup        find duplicate / near-duplicate tuples (-phit -minsim)
//	partition    horizontal partitioning (-k, 0 = automatic)
//	values       cluster co-occurring attribute values (-phiv)
//	group-attrs  attribute grouping dendrogram (-phiv, -double)
//	mine-fds     discover minimal FDs (+ minimum cover)
//	mine-mvds    discover multivalued dependencies (X ->-> Y) (-maxlhs)
//	approx-fds   discover approximate FDs under a g3 bound (-eps)
//	rank-fds     FD-RANK pipeline with RAD/RTR per dependency (-psi)
//	decompose    apply the top-ranked FD as a lossless vertical split
//	joins        discover join paths across several CSVs (-mincont)
//
// Every invocation is one internal/task run — the pipeline the
// structmined server runs for a job — with only the flags actually
// passed turned into knobs, so an unset knob takes the task's default
// (report: -phit 0.3; approx-fds: -eps 0.05, -maxlhs 3; rank-fds: -psi
// 0.5; …). The result is printed as text, or with -json as the same
// machine-readable encoding the server serves — one analysis, two
// renderings. -stats prints the run's per-stage wall-clock timings to
// stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"structmine"
	"structmine/internal/obs"
	"structmine/internal/task"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "structmine:", err)
		os.Exit(1)
	}
}

func usageError() error {
	return fmt.Errorf("usage: structmine <task> [flags] <file.csv ...>\n\nTasks:\n%s", task.Usage())
}

func run(args []string) error {
	if len(args) < 1 {
		return usageError()
	}
	taskName := args[0]
	if _, ok := task.Lookup(taskName); !ok {
		return fmt.Errorf("unknown task %q\n\nTasks:\n%s", taskName, task.Usage())
	}

	fs := flag.NewFlagSet(taskName, flag.ContinueOnError)
	phiT := fs.Float64("phit", 0.0, "tuple clustering accuracy φT")
	phiV := fs.Float64("phiv", 0.0, "value clustering accuracy φV")
	psi := fs.Float64("psi", 0.5, "FD-RANK threshold ψ")
	k := fs.Int("k", 0, "number of partitions (0 = automatic)")
	topN := fs.Int("top", 10, "how many results to print")
	double := fs.Bool("double", false, "use double clustering (large instances)")
	eps := fs.Float64("eps", 0.05, "g3 error bound for approx-fds")
	maxLHS := fs.Int("maxlhs", 0, "maximum antecedent size for mine-mvds/approx-fds (0 = default)")
	minSim := fs.Float64("minsim", 0.5, "minimum string similarity for dedup pairs")
	minCont := fs.Float64("mincont", 0.9, "minimum containment for the joins task")
	jsonOut := fs.Bool("json", false, "emit the result as JSON (the structmined output contract)")
	stats := fs.Bool("stats", false, "print per-stage wall-clock timings to stderr after the run")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}

	// Only flags the user actually passed become explicit task knobs, so
	// each task's own defaults (φT 0.3 for report, ψ 0.5 for rank-fds, …)
	// apply exactly when a knob is unset — and an explicit -psi=0 or
	// -phit=0 survives as a real zero instead of being re-defaulted.
	passed := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { passed[f.Name] = true })
	knob := func(name string, v float64) *float64 {
		if passed[name] {
			return task.F(v)
		}
		return nil
	}
	params := structmine.TaskParams{
		PhiT: knob("phit", *phiT), PhiV: knob("phiv", *phiV), Psi: knob("psi", *psi),
		K: *k, Eps: knob("eps", *eps), MaxLHS: *maxLHS,
		MinSim: knob("minsim", *minSim), Double: *double,
	}

	// With -stats every stage records itself on a trace carried by the
	// context — parsing here, then the runner's own stage boundaries — and
	// the report lands on stderr so it composes with -json on stdout.
	ctx := context.Background()
	var tr *obs.Trace
	if *stats {
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
		defer func() {
			tr.Finish()
			tr.Report().WriteStageReport(os.Stderr)
		}()
	}

	// One pipeline per task: text and -json run the same call and differ
	// only in how the result struct is written out.
	var r *structmine.Relation
	var res any
	tr.Enter("parse")
	if taskName == "joins" {
		if fs.NArg() < 2 {
			return fmt.Errorf("task joins requires at least two CSV files")
		}
		var rels []*structmine.Relation
		for _, path := range fs.Args() {
			rel, err := structmine.ReadCSVFile(path)
			if err != nil {
				return err
			}
			rels = append(rels, rel)
		}
		tr.Enter("join discovery")
		res = structmine.FindJoinableResult(rels, *minCont, 2)
	} else {
		if fs.NArg() != 1 {
			return fmt.Errorf("task %s requires exactly one CSV file", taskName)
		}
		var err error
		if r, err = structmine.ReadCSVFile(fs.Arg(0)); err != nil {
			return err
		}
		// task.Run applies the per-task defaults to unset knobs — the same
		// normalization the structmined server runs on submitted jobs, so
		// -json output matches a server job byte for byte.
		if res, err = task.Run(ctx, r, taskName, params); err != nil {
			return err
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	renderText(os.Stdout, r, res, *topN)
	return nil
}

// renderText writes a task result for the terminal, at most top rows of
// each list. r is the parsed relation the result was mined from (nil for
// joins); only dedup reads it, to show the tuples behind the row ids.
func renderText(w io.Writer, r *structmine.Relation, res any, top int) {
	if r != nil {
		fmt.Fprintf(w, "%s: %d tuples, %d attributes, %d values\n", r.Name, r.N(), r.M(), r.D())
	}
	// Lists show their first top rows (shown) and say how many they cut (more).
	top = max(top, 0)
	shown := func(n int) int { return min(n, top) }
	more := func(n int) {
		if n > top {
			fmt.Fprintf(w, "  ... %d more\n", n-top)
		}
	}
	switch res := res.(type) {
	case *task.DescribeResult:
		for _, a := range res.Attrs {
			fmt.Fprintf(w, "  %-24s %5d distinct, %5.1f%% NULL\n", a.Name, a.Distinct, 100*a.NullFraction)
		}

	case *task.ReportResult:
		fmt.Fprint(w, res.Text)

	case *task.DedupResult:
		fmt.Fprintf(w, "%d duplicate-candidate groups (φT=%g, threshold %.3g)\n",
			len(res.Groups), res.PhiT, res.Threshold)
		for gi, group := range res.Groups[:shown(len(res.Groups))] {
			fmt.Fprintf(w, "group %d (%d tuples):\n", gi, len(group))
			for _, t := range group {
				fmt.Fprintf(w, "  #%-6d %v\n", t, r.TupleStrings(t))
			}
		}
		more(len(res.Groups))
		if len(res.Pairs) > 0 {
			fmt.Fprintf(w, "\ntop pairs by string similarity (≥ %g):\n", res.MinSim)
			for _, p := range res.Pairs[:shown(len(res.Pairs))] {
				fmt.Fprintf(w, "  #%d ~ #%d  agree=%d/%d similarity=%.3f\n",
					p.T1, p.T2, p.Agree, r.M(), p.Similarity)
			}
		}

	case *task.PartitionResult:
		fmt.Fprintf(w, "k = %d partitions (information loss vs summaries: %.2f%%)\n", res.K, res.InfoLossFrac*100)
		for i, g := range res.Partitions {
			fmt.Fprintf(w, "  partition %d: %d tuples, e.g. %v\n", i+1, g.Size, g.Sample)
		}

	case *task.ValuesResult:
		fmt.Fprintf(w, "%d value groups, %d duplicate groups (C_V^D) at φV=%g\n",
			res.NumGroups, res.NumDuplicateGroups, res.PhiV)
		for _, g := range res.DuplicateGroups[:shown(len(res.DuplicateGroups))] {
			fmt.Fprintf(w, "  group (%d tuples): %s\n", g.Tuples, strings.Join(g.Values, " "))
		}
		more(len(res.DuplicateGroups))

	case *task.GroupAttrsResult:
		fmt.Fprintf(w, "A^D has %d attributes over %d duplicate groups\n", len(res.Attrs), res.NumDuplicateGroups)
		fmt.Fprint(w, res.Dendrogram)

	case *task.MVDsResult:
		fmt.Fprintf(w, "%d non-trivial MVDs (FD-implied suppressed):\n", len(res.MVDs))
		for _, v := range res.MVDs[:shown(len(res.MVDs))] {
			fmt.Fprintln(w, "  "+v.Label)
		}
		more(len(res.MVDs))

	case *task.FDsResult:
		fmt.Fprintf(w, "%d minimal FDs, %d in minimum cover:\n", res.NumMinimal, len(res.Cover))
		for _, f := range res.Cover {
			fmt.Fprintln(w, "  "+f.Label)
		}

	case *task.ApproxFDsResult:
		fmt.Fprintf(w, "%d minimal approximate FDs with g3 ≤ %g (LHS ≤ %d):\n", len(res.FDs), res.Eps, res.MaxLHS)
		for _, a := range res.FDs[:shown(len(res.FDs))] {
			fmt.Fprintf(w, "  %-52s g3=%.4f\n", a.FD.Label, a.G3)
		}
		more(len(res.FDs))

	case *task.RankFDsResult:
		fmt.Fprintf(w, "%d FDs ranked (ψ=%g); most redundancy-removing first:\n", len(res.Ranked), res.Psi)
		for i, rf := range res.Ranked[:shown(len(res.Ranked))] {
			fmt.Fprintf(w, "  %2d. %-56s rank=%.4f RAD=%.3f RTR=%.3f\n", i+1, rf.FD.Label, rf.Rank, rf.RAD, rf.RTR)
		}
		more(len(res.Ranked))

	case *task.DecomposeResult:
		fmt.Fprintf(w, "decomposing on %s (rank %.4f):\n", res.FD.Label, res.Rank)
		fmt.Fprintf(w, "  S1 %v: %d rows\n", res.S1.Attrs, res.S1.Tuples)
		fmt.Fprintf(w, "  S2 %v: %d rows\n", res.S2.Attrs, res.S2.Tuples)
		fmt.Fprintf(w, "  stored cells %d -> %d (%.1f%% reduction); RAD=%.3f RTR=%.3f\n",
			res.CellsBefore, res.CellsAfter, 100*res.Reduction, res.RAD, res.RTR)

	case *task.JoinsResult:
		fmt.Fprintf(w, "%d joinable attribute pairs (containment >= %g):\n", len(res.Candidates), res.MinContainment)
		for _, c := range res.Candidates[:shown(len(res.Candidates))] {
			fmt.Fprintf(w, "  %s.%s -> %s.%s  containment=%.2f jaccard=%.2f\n",
				c.FromRelation, c.FromAttr, c.ToRelation, c.ToAttr, c.Containment, c.Jaccard)
		}
		more(len(res.Candidates))
	}
}
