// Package structmine is an information-theoretic toolkit for mining
// database structure from large categorical data sets, reproducing
// Andritsos, Miller & Tsaparas, "Information-Theoretic Tools for Mining
// Database Structure from Large Data Sets" (SIGMOD 2004).
//
// Given a relation instance — possibly integrated, dirty, and with an
// untrustworthy schema — the Miner offers:
//
//   - duplicate and near-duplicate tuple detection (LIMBO tuple
//     clustering, Section 6.1.1);
//   - horizontal partitioning of overloaded relations with automatic
//     choice of the partition count (Section 6.1.2);
//   - discovery of perfectly and almost-perfectly co-occurring attribute
//     value groups and of anomalous values (Section 6.2);
//   - attribute grouping by shared duplicate values (Section 6.3);
//   - functional dependency discovery (FDEP / TANE) with Maier minimum
//     covers; and
//   - FD-RANK (Section 7): ranking dependencies by the redundancy their
//     decomposition removes, together with the RAD / RTR measures.
//
// Quick start:
//
//	r, _ := structmine.ReadCSVFile("orders.csv")
//	m := structmine.NewMiner(r, structmine.DefaultOptions())
//	dup := m.FindDuplicateTuples()
//	fds, _ := m.MineFDs()
//	ranked, _ := m.RankFDs(structmine.MinCover(fds))
package structmine

import (
	"context"
	"fmt"
	"io"

	"structmine/internal/attrs"
	"structmine/internal/decompose"
	"structmine/internal/fd"
	"structmine/internal/fdrank"
	"structmine/internal/ib"
	"structmine/internal/joins"
	"structmine/internal/limbo"
	"structmine/internal/measures"
	"structmine/internal/relation"
	"structmine/internal/task"
	"structmine/internal/tuples"
	"structmine/internal/values"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public names.
type (
	// Relation is a categorical relation instance.
	Relation = relation.Relation
	// Builder accumulates tuples for a Relation.
	Builder = relation.Builder
	// FD is a functional dependency over attribute indices.
	FD = fd.FD
	// AttrSet is a set of attribute indices.
	AttrSet = fd.AttrSet
	// RankedFD is an FD with its FD-RANK rank.
	RankedFD = fdrank.Ranked
	// DuplicateReport is the outcome of duplicate-tuple detection.
	DuplicateReport = tuples.DuplicateReport
	// PartitionResult is the outcome of horizontal partitioning.
	PartitionResult = tuples.PartitionResult
	// ValueClustering is the outcome of attribute-value clustering.
	ValueClustering = values.Clustering
	// AttrGrouping is a full agglomerative clustering of attributes.
	AttrGrouping = attrs.Grouping
	// Dendrogram renders a merge sequence.
	Dendrogram = ib.Dendrogram
)

// Null is the canonical missing-value token.
const Null = relation.Null

// NewRelation starts building a relation with the given attribute names.
func NewRelation(name string, attributes []string) *Builder {
	return relation.NewBuilder(name, attributes)
}

// ReadCSV parses a header-first CSV stream into a Relation.
func ReadCSV(name string, r io.Reader) (*Relation, error) { return relation.ReadCSV(name, r) }

// ReadCSVFile parses a CSV file into a Relation.
func ReadCSVFile(path string) (*Relation, error) { return relation.ReadCSVFile(path) }

// Options configures a Miner. Every field is honored as given —
// including explicit zeros, which are meaningful settings for the φ
// knobs and ψ — so start from DefaultOptions() and override, rather
// than relying on the zero value, when you want the paper's defaults:
//
//	opts := structmine.DefaultOptions()
//	opts.PhiT = 0.05
//	m := structmine.NewMiner(r, opts)
//
// Only structurally invalid values (a branching factor below 2, a
// non-positive leaf bound, a negative threshold) are replaced by their
// defaults.
type Options struct {
	// PhiT is the tuple-clustering accuracy knob φT ∈ [0,1]. 0 — the
	// paper's default — merges only identical tuples; larger values admit
	// more approximate duplicates.
	PhiT float64
	// PhiV is the value-clustering knob φV ∈ [0,1]. 0 — the paper's
	// default — finds perfect co-occurrence only.
	PhiV float64
	// PhiA is the attribute-grouping knob φA (the paper always uses 0).
	PhiA float64
	// B is the DCF-tree branching factor (paper: 4). Values below 2
	// cannot form a tree and are replaced by the default.
	B int
	// Psi is the FD-RANK threshold ψ ∈ [0,1] (paper: 0.5). An explicit 0
	// disables the threshold; a negative value is replaced by the
	// default.
	Psi float64
	// MaxLeaves bounds Phase 1 summaries during horizontal partitioning
	// (paper: "for example, 100 leaves"). Non-positive values are
	// replaced by the default.
	MaxLeaves int
}

// DefaultOptions returns the parameter settings used throughout the
// paper's evaluation.
func DefaultOptions() Options {
	return Options{PhiT: 0, PhiV: 0, PhiA: 0, B: 4, Psi: 0.5, MaxLeaves: 100}
}

// normalized repairs structurally invalid fields only. Explicit zeros
// are meaningful (ψ = 0 ranks every dependency; φ = 0 demands perfect
// co-occurrence) and pass through untouched — an earlier contract that
// silently promoted Psi 0 to 0.5 made the zero setting unreachable.
func (o Options) normalized() Options {
	if o.B <= 1 {
		o.B = 4
	}
	if o.Psi < 0 {
		o.Psi = 0.5
	}
	if o.MaxLeaves <= 0 {
		o.MaxLeaves = 100
	}
	return o
}

// Miner runs the paper's structure-discovery tasks over one relation.
type Miner struct {
	r    *Relation
	opts Options
}

// NewMiner wraps a relation with the given options.
func NewMiner(r *Relation, opts Options) *Miner {
	return &Miner{r: r, opts: opts.normalized()}
}

// Relation returns the underlying instance.
func (m *Miner) Relation() *Relation { return m.r }

// sets returns a fresh kernel over the instance: every Miner call is a
// job of its own, so nothing it loads outlives the call.
func (m *Miner) sets() *fd.Sets { return fd.NewSets(context.Background(), relation.AsColumns(m.r)) }

// FindDuplicateTuples groups exact and near-duplicate tuples at accuracy φT.
func (m *Miner) FindDuplicateTuples() *DuplicateReport {
	rep, _ := tuples.FindDuplicatesColumns(context.Background(), m.sets(), m.opts.PhiT, m.opts.B) // no failing reads in memory
	return rep
}

// DuplicatePair is a scored candidate duplicate pair.
type DuplicatePair = tuples.PairScore

// RefineDuplicates composes LIMBO's candidate groups with string
// similarity: pairs within each group are ranked by the normalized edit
// similarity of their differing values (the combination the paper's
// conclusions suggest). Pairs below minSim are dropped.
func (m *Miner) RefineDuplicates(rep *DuplicateReport, minSim float64) []DuplicatePair {
	pairs, _ := tuples.RefineDuplicatesColumns(relation.AsColumns(m.r), rep, minSim) // no failing reads in memory
	return pairs
}

// HorizontalPartition clusters the tuples into k partitions; k ≤ 0 lets
// the δI rate-of-change heuristic choose.
func (m *Miner) HorizontalPartition(k int) *PartitionResult {
	res, _ := tuples.PartitionColumns(context.Background(), relation.AsColumns(m.r), m.opts.MaxLeaves, m.opts.B, k) // no failing reads in memory
	return res
}

// ClusterValues groups attribute values that (almost) co-occur, at
// accuracy φV.
func (m *Miner) ClusterValues() *ValueClustering { return m.clusterValues(false) }

// ClusterValuesDouble runs double clustering: tuples are first
// compressed at φT (must be > 0 to be useful), then values are expressed
// over the tuple clusters and clustered at φV. Use for large instances.
func (m *Miner) ClusterValuesDouble() *ValueClustering { return m.clusterValues(true) }

func (m *Miner) clusterValues(double bool) *ValueClustering {
	vc, _ := task.ClusterValues(context.Background(), m.sets(), m.opts.PhiT, m.opts.PhiV, m.opts.B, double) // no failing reads in memory
	return vc
}

// GroupAttributes clusters the attributes by shared duplicate value
// groups, returning the grouping (with its merge sequence Q) and the
// value clustering it was derived from. Double selects double
// clustering for the value step.
func (m *Miner) GroupAttributes(double bool) (*AttrGrouping, *ValueClustering) {
	g, vc, _ := task.GroupAttributes(context.Background(), m.sets(), m.opts.PhiT, m.opts.PhiV, m.opts.B, double) // no failing reads in memory
	return g, vc
}

// MineFDs discovers all minimal functional dependencies holding in the
// instance (TANE; FDEP returns the same set, in the same order).
func (m *Miner) MineFDs() ([]FD, error) {
	return fd.TANEColumnsCtx(context.Background(), m.sets())
}

// ApproxFD is an approximate dependency with its g3 error.
type ApproxFD = fd.ApproxFD

// MineApproxFDs discovers all minimal approximate dependencies whose g3
// error (fraction of tuples to remove) is at most eps. maxLHS bounds the
// antecedent size (0 = unbounded).
func (m *Miner) MineApproxFDs(eps float64, maxLHS int) ([]ApproxFD, error) {
	return fd.MineApproxColumns(context.Background(), m.sets(), eps, maxLHS)
}

// G3 returns the approximation error of an FD on this instance.
func (m *Miner) G3(f FD) float64 {
	g3, _ := m.sets().G3(f) // no failing reads in memory
	return g3
}

// Keys returns the minimal candidate keys of the instance (nil when
// exact duplicate tuples make every attribute set non-unique), read off
// the minimal FDs TANE mines: no pair of tuples is compared.
func (m *Miner) Keys() ([]AttrSet, error) {
	s := m.sets()
	fds, err := fd.TANEColumnsCtx(context.Background(), s)
	if err != nil {
		return nil, err
	}
	return s.Keys(fds)
}

// MVD is a multivalued dependency X →→ Y.
type MVD = fd.MVD

// MineMVDs discovers non-trivial multivalued dependencies with
// left-hand sides of at most maxLHS attributes (0 = default bound),
// optionally suppressing those already implied by functional
// dependencies. MVDs justify binary lossless decompositions beyond what
// FDs capture.
func (m *Miner) MineMVDs(maxLHS int, skipFDImplied bool) ([]MVD, error) {
	return fd.MineMVDsCtx(context.Background(), m.sets(), maxLHS, skipFDImplied)
}

// JoinCandidate is a joinable attribute pair across relations.
type JoinCandidate = joins.Candidate

// FindJoinable discovers join paths across relations by value-set
// resemblance (Bellman-style bottom-k sketches): directed containment
// |A∩B|/|A| finds foreign-key-like inclusions. Candidates below
// minContainment or with fewer than minDistinct distinct values are
// dropped.
func FindJoinable(rels []*Relation, minContainment float64, minDistinct int) []JoinCandidate {
	cands, _ := joins.FindJoinable(asColumns(rels), minContainment, minDistinct) // no failing reads in memory
	return cands
}

func asColumns(rels []*Relation) []relation.Columns {
	cols := make([]relation.Columns, len(rels))
	for i, r := range rels {
		cols[i] = relation.AsColumns(r)
	}
	return cols
}

// Decomposition is a lossless vertical decomposition on one FD.
type Decomposition = decompose.Result

// Decompose vertically decomposes the relation on an exact dependency
// X→Y into S1 = π_{X∪Y} (duplicates eliminated) and S2 = π_{R−Y},
// verifying losslessness. The paper's FD-RANK exists to pick the f that
// maximizes the redundancy this removes.
func (m *Miner) Decompose(f FD) (*Decomposition, error) {
	s := m.sets()
	res, err := decompose.OnSets(s, f)
	if err != nil {
		return nil, err
	}
	if err := res.Lossless(s.Columns(), f); err != nil {
		return nil, err
	}
	return res, nil
}

// StructureReport renders the report task under the Miner's φT and ψ:
// attribute profiles, duplicate tuples, correlated values, attribute
// grouping and ranked dependencies.
func (m *Miner) StructureReport() (string, error) {
	res, err := m.RunTask(context.Background(), "report", TaskParams{})
	if err != nil {
		return "", err
	}
	return res.(*ReportResult).Text, nil
}

// MinCover reduces an FD set to a Maier minimum cover.
func MinCover(fds []FD) []FD { return fd.MinCover(fds) }

// RankFDs runs the full FD-RANK pipeline: value clustering at φV
// (double clustering when the instance is large), attribute grouping,
// then ranking with ψ. Lower ranks indicate more redundancy removed.
func (m *Miner) RankFDs(fds []FD) ([]RankedFD, error) {
	g, _, err := task.RankGrouping(context.Background(), m.sets(), m.opts.PhiT, m.opts.PhiV, m.opts.B)
	if err != nil {
		return nil, err
	}
	return fdrank.Rank(fds, g, m.opts.Psi), nil
}

// RankFDsWithGrouping ranks against a precomputed attribute grouping.
func (m *Miner) RankFDsWithGrouping(fds []FD, g *AttrGrouping) []RankedFD {
	return fdrank.Rank(fds, g, m.opts.Psi)
}

// RAD returns the Relative Attribute Duplication of the named attributes.
func (m *Miner) RAD(attrNames []string) (float64, error) {
	ms, err := m.measure(attrNames)
	return ms.RAD, err
}

// RTR returns the Relative Tuple Reduction of the named attributes.
func (m *Miner) RTR(attrNames []string) (float64, error) {
	ms, err := m.measure(attrNames)
	return ms.RTR, err
}

func (m *Miner) measure(attrNames []string) (measures.Measures, error) {
	ix, err := m.r.AttrIndices(attrNames)
	if err != nil {
		return measures.Measures{}, err
	}
	return measures.OfSets(m.sets(), ix)
}

// MeasureFD returns RAD and RTR for the attribute set S = X ∪ Y of an FD
// (the per-dependency numbers of the paper's Tables 3, 5 and 6).
func (m *Miner) MeasureFD(f FD) (rad, rtr float64) {
	ms, _ := measures.OfSets(m.sets(), f.Attrs().Attrs()) // no failing reads in memory
	return ms.RAD, ms.RTR
}

// TupleInfo returns I(T;V) of the instance, the total information the
// tuple identities carry about the values.
func (m *Miner) TupleInfo() float64 {
	objs, _ := tuples.ObjectsColumnsCtx(context.Background(), relation.AsColumns(m.r)) // no failing reads in memory
	return limbo.MutualInfo(objs)
}

// FormatFD renders an FD with this relation's attribute names.
func (m *Miner) FormatFD(f FD) string { return f.Format(m.r.Attrs) }

// Describe returns a one-line summary of the instance.
func (m *Miner) Describe() string {
	return fmt.Sprintf("%s: %d tuples, %d attributes, %d values",
		m.r.Name, m.r.N(), m.r.M(), m.r.D())
}
