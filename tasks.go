package structmine

import (
	"context"

	"structmine/internal/relation"
	"structmine/internal/task"
)

// TaskParams parameterizes one task run. The float knobs are pointers:
// nil means "not set" (RunTask inherits the Miner's options where they
// overlap, and the task's own defaults fill the rest), while an
// explicit value — set with Knob — is honored as given, including 0.
type TaskParams = task.Params

// Knob wraps a literal for a TaskParams field, making an explicit
// setting distinct from an unset (nil) knob:
//
//	m.RunTask(ctx, "rank-fds", structmine.TaskParams{Psi: structmine.Knob(0)})
func Knob(v float64) *float64 { return task.F(v) }

// JSON-serializable task results — the single output contract shared by
// RunTask, the structmine CLI's -json mode, and the structmined server.
type (
	// DescribeResult summarizes one relation instance.
	DescribeResult = task.DescribeResult
	// DedupResult is the outcome of duplicate-tuple detection.
	DedupResult = task.DedupResult
	// PartitionTaskResult is the outcome of horizontal partitioning.
	PartitionTaskResult = task.PartitionResult
	// ValuesResult is the outcome of attribute-value clustering.
	ValuesResult = task.ValuesResult
	// GroupAttrsResult is the outcome of attribute grouping.
	GroupAttrsResult = task.GroupAttrsResult
	// FDsResult is the outcome of exact dependency mining.
	FDsResult = task.FDsResult
	// MVDsResult is the outcome of MVD mining.
	MVDsResult = task.MVDsResult
	// ApproxFDsResult is the outcome of approximate dependency mining.
	ApproxFDsResult = task.ApproxFDsResult
	// RankFDsResult is the outcome of the FD-RANK pipeline.
	RankFDsResult = task.RankFDsResult
	// DecomposeResult is a lossless decomposition on the best ranked FD.
	DecomposeResult = task.DecomposeResult
	// ReportResult is the full structure report, data plus rendered text.
	ReportResult = task.ReportResult
	// JoinsResult is the outcome of cross-relation join discovery.
	JoinsResult = task.JoinsResult
)

// TaskNames lists every runnable task in presentation order.
func TaskNames() []string { return task.Names() }

// RunTask executes a named structure-mining task and returns its
// JSON-serializable result struct (one of the *Result types above). The
// context is honored between pipeline stages, so a deadline or
// cancellation aborts multi-stage jobs at the next stage boundary.
// Knobs left unset (nil) in p inherit the Miner's options; explicit
// values — including explicit zeros, via Knob — are honored as given.
func (m *Miner) RunTask(ctx context.Context, name string, p TaskParams) (any, error) {
	if p.PhiT == nil {
		p.PhiT = task.F(m.opts.PhiT)
	}
	if p.PhiV == nil {
		p.PhiV = task.F(m.opts.PhiV)
	}
	if p.Psi == nil {
		p.Psi = task.F(m.opts.Psi)
	}
	return task.Run(ctx, m.r, name, p)
}

// DescribeResult returns the instance summary as a struct (Describe
// renders the one-line text form).
func (m *Miner) DescribeResult() *DescribeResult { return task.Describe(m.r) }

// FindJoinableResult is FindJoinable with the shared JSON result shape.
func FindJoinableResult(rels []*relation.Relation, minContainment float64, minDistinct int) *JoinsResult {
	res, _ := task.Joins(asColumns(rels), minContainment, minDistinct) // no failing reads in memory
	return res
}
