// Package task defines the shared task contract between the structmine
// CLI, the structmined server and the structmine facade: the catalogue
// of structure-mining tasks, their JSON-serializable parameters and
// result types, and a context-aware runner.
//
// There is one pipeline: every single-dataset task has exactly one
// runner, written against relation.Columns, and RunColumns is the one
// dispatcher. A resident relation runs through the same code behind
// relation.AsColumns (Run), so an in-memory dataset and an out-of-core
// colstore table produce byte-identical artifacts by construction.
//
// Both front ends end in that one call. The CLI runs Run once per
// invocation and then either encodes the result struct (-json) or
// renders it as text; the server's job results are the same encoding, so
// the front ends cannot drift apart. The steps more than one caller
// composes — value clustering, single or double (ClusterValues), value
// clustering followed by attribute grouping (GroupAttributes), and the
// grouping FD-RANK ranks against (RankGrouping) — are exported here and
// are what the facade's Miner calls, so they are composed nowhere else.
// Parameters are normalized per task (irrelevant knobs zeroed, defaults
// filled in) before execution, which also makes them usable as a
// canonical artifact-cache key.
package task

import (
	"context"
	"fmt"
	"strings"

	"structmine/internal/fd"
	"structmine/internal/obs"
	"structmine/internal/relation"
)

// Spec describes one task for usage strings, documentation, and the
// server's task validation. Keep this table the single source of truth:
// the CLI usage text and the cmd/structmine doc comment are checked
// against it by tests.
type Spec struct {
	Name     string
	Synopsis string // one-line description
	Flags    string // the CLI flags the task consumes, e.g. "-phit -minsim"
	// MultiFile marks tasks that operate on several CSV files at once
	// (joins); these are CLI-only and cannot run as server jobs.
	MultiFile bool
}

// Specs lists every task, in presentation order.
var Specs = []Spec{
	{Name: "describe", Synopsis: "print instance statistics and per-attribute profiles"},
	{Name: "report", Synopsis: "full structure report (profiles, duplicates, ranked FDs)", Flags: "-phit -psi"},
	{Name: "dedup", Synopsis: "find duplicate / near-duplicate tuples", Flags: "-phit -minsim"},
	{Name: "partition", Synopsis: "horizontal partitioning (0 = automatic k)", Flags: "-k"},
	{Name: "values", Synopsis: "cluster co-occurring attribute values", Flags: "-phiv"},
	{Name: "group-attrs", Synopsis: "attribute grouping dendrogram", Flags: "-phiv -double"},
	{Name: "mine-fds", Synopsis: "discover minimal FDs (+ minimum cover)"},
	{Name: "mine-mvds", Synopsis: "discover multivalued dependencies (X ->-> Y)", Flags: "-maxlhs"},
	{Name: "approx-fds", Synopsis: "discover approximate FDs under a g3 bound", Flags: "-eps"},
	{Name: "rank-fds", Synopsis: "FD-RANK pipeline with RAD/RTR per dependency", Flags: "-psi"},
	{Name: "decompose", Synopsis: "apply the top-ranked FD as a lossless vertical split", Flags: "-psi"},
	{Name: "joins", Synopsis: "discover join paths across several CSVs", Flags: "-mincont", MultiFile: true},
}

// Lookup returns the spec of the named task.
func Lookup(name string) (Spec, bool) {
	for _, s := range Specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names returns every task name in presentation order.
func Names() []string {
	out := make([]string, len(Specs))
	for i, s := range Specs {
		out[i] = s.Name
	}
	return out
}

// Usage renders the one-screen task table used by the CLI usage string.
func Usage() string {
	var b strings.Builder
	for _, s := range Specs {
		syn := s.Synopsis
		if s.Flags != "" {
			syn += " (" + s.Flags + ")"
		}
		fmt.Fprintf(&b, "\t%-12s %s\n", s.Name, syn)
	}
	return b.String()
}

// Params are the knobs a task run may consume, with JSON names matching
// the server's job-submission payload.
//
// The float knobs are pointers so that "not set" and "explicitly zero"
// are distinct states: a nil knob selects the task's default, while an
// explicit value — including 0 — is honored as given. In Go code use F
// to set a literal (Params{Psi: task.F(0.5)}); in JSON simply omit the
// field to take the default.
type Params struct {
	// PhiT is the tuple-clustering accuracy knob φT. Unset selects 0.3
	// for report and 0 (self-calibrating threshold) elsewhere; a
	// negative value reads as 0.
	PhiT *float64 `json:"phit,omitempty"`
	// PhiV is the value-clustering accuracy knob φV of values and
	// group-attrs. Unset selects 0 (self-calibrating threshold); a
	// negative value reads as 0.
	PhiV *float64 `json:"phiv,omitempty"`
	// Psi is the FD-RANK threshold ψ. Unset selects 0.5; an explicit 0
	// disables the threshold entirely.
	Psi *float64 `json:"psi,omitempty"`
	// K is the partition count for the partition task. 0, a negative
	// value or unset selects the automatic elbow choice.
	K int `json:"k,omitempty"`
	// Eps is the g3 bound for approx-fds. Unset selects 0.05; an
	// explicit 0 (or a negative value) demands exact dependencies.
	Eps *float64 `json:"eps,omitempty"`
	// MaxLHS bounds antecedent size for approx-fds / mine-mvds. 0, a
	// negative value or unset selects the default bound: 3 for
	// approx-fds, 2 for mine-mvds.
	MaxLHS int `json:"max_lhs,omitempty"`
	// MinSim is the minimum string similarity for dedup pairs. Unset
	// selects 0.5; an explicit 0 (or a negative value) keeps every
	// in-group pair.
	MinSim *float64 `json:"min_sim,omitempty"`
	// Double selects double clustering for group-attrs.
	Double bool `json:"double,omitempty"`
	// MinContainment is the joins threshold (CLI-only task). Unset
	// selects 0.9.
	MinContainment *float64 `json:"min_containment,omitempty"`
}

// F wraps a literal for a Params knob: Params{Psi: task.F(0)} is an
// explicit zero, distinct from the unset (nil) knob.
func F(v float64) *float64 { return &v }

// fv resolves a pointer knob to its value, with nil reading as 0.
func fv(p *float64) float64 {
	if p == nil {
		return 0
	}
	return *p
}

// Normalize returns the parameters a task actually consumes: every knob
// the task reads is resolved to a concrete (non-nil) value — the given
// one, or the task's default when unset — and irrelevant knobs are
// cleared. A value the runner reads as another one resolves to it: φT,
// φV, ε and min_sim below 0 act as 0, a non-positive max_lhs as the
// miner's default bound, and k < 0 as the automatic choice. Two
// submissions that ask the same question normalize identically, so the
// artifact cache treats them as the same query.
func (p Params) Normalize(taskName string) Params {
	q := Params{}
	resolve := func(dst **float64, src *float64, def float64) {
		v := def
		if src != nil {
			v = *src
		}
		*dst = &v
	}
	// resolveNonNeg is resolve for a knob that reads any value ≤ 0 as 0
	// (a -0 included, so it keys as 0 too).
	resolveNonNeg := func(dst **float64, src *float64, def float64) {
		resolve(dst, src, def)
		if **dst <= 0 {
			**dst = 0
		}
	}
	switch taskName {
	case "describe", "mine-fds":
		// No knobs.
	case "report":
		resolveNonNeg(&q.PhiT, p.PhiT, 0.3)
		resolve(&q.Psi, p.Psi, 0.5)
	case "dedup":
		resolveNonNeg(&q.PhiT, p.PhiT, 0)
		resolveNonNeg(&q.MinSim, p.MinSim, 0.5)
	case "partition":
		q.K = max(p.K, 0)
	case "values":
		resolveNonNeg(&q.PhiV, p.PhiV, 0)
	case "group-attrs":
		resolveNonNeg(&q.PhiV, p.PhiV, 0)
		q.Double = p.Double
		if q.Double {
			resolveNonNeg(&q.PhiT, p.PhiT, 0)
		}
	case "mine-mvds":
		q.MaxLHS = p.MaxLHS
		if q.MaxLHS <= 0 {
			q.MaxLHS = 2
		}
	case "approx-fds":
		// The miner reads a non-positive bound as none at all, so the
		// documented default of 3 for max_lhs ≤ 0 resolves here.
		resolveNonNeg(&q.Eps, p.Eps, 0.05)
		q.MaxLHS = p.MaxLHS
		if q.MaxLHS <= 0 {
			q.MaxLHS = 3
		}
	case "rank-fds", "decompose":
		resolve(&q.Psi, p.Psi, 0.5)
	case "joins":
		resolve(&q.MinContainment, p.MinContainment, 0.9)
	}
	return q
}

// CacheKey renders the canonical cache-key fragment for this task and
// parameter set: the task name plus the normalized knobs in a fixed
// order (nil knobs render as 0, as before the pointer redesign, so keys
// persisted by earlier builds stay addressable). Combined with a
// dataset content hash it addresses one artifact.
func (p Params) CacheKey(taskName string) string {
	q := p.Normalize(taskName)
	return fmt.Sprintf("%s|phit=%g|phiv=%g|psi=%g|k=%d|eps=%g|maxlhs=%d|minsim=%g|double=%t|mincont=%g",
		taskName, fv(q.PhiT), fv(q.PhiV), fv(q.Psi), q.K, fv(q.Eps), q.MaxLHS, fv(q.MinSim), q.Double, fv(q.MinContainment))
}

// Run executes the named task over a resident relation: RunColumns
// behind relation.AsColumns.
func Run(ctx context.Context, r *relation.Relation, taskName string, p Params) (any, error) {
	return RunColumns(ctx, relation.AsColumns(r), taskName, p)
}

// RunColumns executes the named task over the column interface and
// returns its JSON-serializable result struct. The context is checked
// between pipeline stages, so cancellation or a deadline aborts a
// multi-stage job at the next stage boundary. Under WithIntermediates
// the delta-capable tasks re-mine incrementally; the result is the same
// either way.
//
// The joins task operates on several relations and is not runnable here;
// use Joins directly.
func RunColumns(ctx context.Context, c relation.Columns, taskName string, p Params) (any, error) {
	spec, ok := Lookup(taskName)
	if !ok {
		return nil, fmt.Errorf("task: unknown task %q (have: %s)", taskName, strings.Join(Names(), ", "))
	}
	if spec.MultiFile {
		return nil, fmt.Errorf("task: %q operates on several relations and cannot run over one dataset", taskName)
	}
	return dispatch(ctx, fd.NewSets(ctx, c), taskName, p.Normalize(taskName))
}

// dispatch runs one job. s is the job's kernel over its instance: every
// exact question about an attribute set the job asks — measures, g3,
// FD checks, keys, Π_R's tuple groups, and the miners' level-1
// partitions — goes to it, so each attribute is loaded at most once per
// job.
func dispatch(ctx context.Context, s *fd.Sets, taskName string, p Params) (any, error) {
	c := s.Columns()
	switch taskName {
	case "describe":
		return runDescribe(ctx, c)
	case "report":
		return runReport(ctx, s, p)
	case "dedup":
		return runDedup(ctx, s, p)
	case "partition":
		return runPartition(ctx, c, p)
	case "values":
		return runValues(ctx, s, p)
	case "group-attrs":
		return runGroupAttrs(ctx, s, p)
	case "mine-fds":
		return runMineFDs(ctx, s)
	case "mine-mvds":
		return runMineMVDs(ctx, s, p)
	case "approx-fds":
		return runApproxFDs(ctx, s, p)
	case "rank-fds":
		return runRankFDs(ctx, s, p)
	case "decompose":
		return runDecompose(ctx, s, p)
	}
	return nil, fmt.Errorf("task: %q has no runner", taskName)
}

// step marks one pipeline-stage boundary: it returns the context's
// error, annotated with the stage it aborted before, and otherwise
// enters the stage on the context's trace (if one is attached), so every
// runner gets per-stage wall-clock timing for free. The caller that owns
// the trace (the job runner, or the CLI's -stats mode) finishes it after
// Run returns, closing the last stage.
func step(ctx context.Context, stage string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("task: canceled before %s: %w", stage, err)
	}
	obs.Stage(ctx, stage)
	return nil
}
