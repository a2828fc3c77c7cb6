package task

import (
	"context"
	"fmt"
	"time"

	"structmine/internal/attrs"
	"structmine/internal/decompose"
	"structmine/internal/fd"
	"structmine/internal/fdrank"
	"structmine/internal/joins"
	"structmine/internal/limbo"
	"structmine/internal/measures"
	"structmine/internal/obs"
	"structmine/internal/relation"
	"structmine/internal/tuples"
	"structmine/internal/values"
)

// Paper defaults shared with the structmine facade: DCF-tree branching
// factor and the Phase 1 summary bound for horizontal partitioning.
const (
	defaultB         = 4
	defaultMaxLeaves = 100
)

// AttrProfile is one attribute's row in describe/report results.
type AttrProfile struct {
	Name         string  `json:"name"`
	Distinct     int     `json:"distinct"`
	NullFraction float64 `json:"null_fraction"`
	EntropyBits  float64 `json:"entropy_bits"`
	RAD          float64 `json:"rad,omitempty"`
	RTR          float64 `json:"rtr,omitempty"`
}

// DescribeResult summarizes one relation instance.
type DescribeResult struct {
	Relation       string        `json:"relation"`
	Tuples         int           `json:"tuples"`
	Attributes     int           `json:"attributes"`
	DistinctValues int           `json:"distinct_values"`
	TupleInfoBits  float64       `json:"tuple_info_bits"`
	Attrs          []AttrProfile `json:"attrs"`
}

// Describe builds the instance summary of a resident relation:
// DescribeColumns behind relation.AsColumns. It is also what the server
// keeps per registered dataset.
func Describe(r *relation.Relation) *DescribeResult {
	res, err := DescribeColumns(relation.AsColumns(r))
	if err != nil {
		panic(err) // an in-memory relation has no failing reads
	}
	return res
}

// DescribeColumns builds the instance summary from the value index,
// without running any miner or touching a row. Because every value id
// is attribute-qualified, each tuple's conditional is uniform over
// exactly m ids, so H(V|T) = log2(m), and the marginal
// p(v) = n_v/(n·m) gives H(V) = (1/m)·Σ_A H(A) + log2(m): I(T;V) is
// the mean of the attributes' entropies.
func DescribeColumns(c relation.Columns) (*DescribeResult, error) {
	n := c.N()
	m := c.M()
	res := &DescribeResult{
		Relation:       c.Name(),
		Tuples:         n,
		Attributes:     m,
		DistinctValues: c.D(),
	}
	names := c.AttrNames()
	for a := 0; a < m; a++ {
		// Every marginal comes out of relation.MarginalOfCounts, whether
		// a colstore table computed it at Open or the resident adapter
		// walks its value index, so paged and resident describes are
		// bit-identical.
		mg, err := c.Marginal(a)
		if err != nil {
			return nil, err
		}
		res.TupleInfoBits += mg.EntropyBits
		nullFrac := 0.0
		if n > 0 {
			nullFrac = float64(c.NullCount(a)) / float64(n)
		}
		res.Attrs = append(res.Attrs, AttrProfile{
			Name:         names[a],
			Distinct:     mg.Distinct,
			NullFraction: nullFrac,
			EntropyBits:  mg.EntropyBits,
		})
	}
	if m > 0 {
		res.TupleInfoBits /= float64(m)
	}
	return res, nil
}

func runDescribe(ctx context.Context, c relation.Columns) (*DescribeResult, error) {
	if err := step(ctx, "describe"); err != nil {
		return nil, err
	}
	return DescribeColumns(c)
}

// DupPair is a scored candidate duplicate pair.
type DupPair struct {
	T1         int     `json:"t1"`
	T2         int     `json:"t2"`
	Agree      int     `json:"agree"`
	Similarity float64 `json:"similarity"`
}

// DedupResult is the outcome of duplicate-tuple detection.
type DedupResult struct {
	PhiT      float64 `json:"phit"`
	Threshold float64 `json:"threshold"`
	LeafCount int     `json:"leaf_count"`
	// Groups lists the multi-tuple candidate groups (tuple indices).
	Groups [][]int `json:"groups"`
	// Pairs ranks in-group pairs by string similarity ≥ MinSim.
	MinSim float64   `json:"min_sim"`
	Pairs  []DupPair `json:"pairs,omitempty"`
}

func runDedup(ctx context.Context, s *fd.Sets, p Params) (*DedupResult, error) {
	if err := step(ctx, "tuple clustering"); err != nil {
		return nil, err
	}
	c := s.Columns()
	rep, err := tuples.FindDuplicatesColumns(ctx, s, fv(p.PhiT), defaultB)
	if err != nil {
		return nil, err
	}
	res := &DedupResult{
		PhiT: fv(p.PhiT), Threshold: rep.Threshold, LeafCount: rep.LeafCount,
		MinSim: fv(p.MinSim), Groups: [][]int{},
	}
	for _, g := range rep.Groups {
		if len(g) >= 2 {
			res.Groups = append(res.Groups, g)
		}
	}
	if err := step(ctx, "pair refinement"); err != nil {
		return nil, err
	}
	pairs, err := tuples.RefineDuplicatesColumns(c, rep, fv(p.MinSim))
	if err != nil {
		return nil, err
	}
	for _, ps := range pairs {
		res.Pairs = append(res.Pairs, DupPair{T1: ps.T1, T2: ps.T2, Agree: ps.Agree, Similarity: ps.Similarity})
	}
	return res, nil
}

// PartitionGroup is one horizontal partition.
type PartitionGroup struct {
	Size int `json:"size"`
	// Tuples lists the member tuple indices.
	Tuples []int `json:"tuples"`
	// Sample renders the first member for human inspection.
	Sample []string `json:"sample,omitempty"`
}

// PartitionResult is the outcome of horizontal partitioning.
type PartitionResult struct {
	K            int              `json:"k"`
	InfoLossFrac float64          `json:"info_loss_frac"`
	Partitions   []PartitionGroup `json:"partitions"`
}

// runPartition runs LIMBO's three phases over the rows. The Phase 1
// tree is the paper's one-pass summary: built from scratch on every run
// and dropped with it, so no intermediate keeps it for a later epoch.
func runPartition(ctx context.Context, c relation.Columns, p Params) (*PartitionResult, error) {
	if err := step(ctx, "partitioning"); err != nil {
		return nil, err
	}
	pr, err := tuples.PartitionColumns(ctx, c, defaultMaxLeaves, defaultB, p.K)
	if err != nil {
		return nil, err
	}
	// The sample rows — each partition's first member — come from one
	// pass over the stripes that hold them.
	var firsts []int
	for _, cluster := range pr.Clusters {
		if len(cluster) > 0 {
			firsts = append(firsts, cluster[0])
		}
	}
	rows, err := relation.FetchRows(c, firsts)
	if err != nil {
		return nil, err
	}
	strs, err := c.ValueStrings()
	if err != nil {
		return nil, err
	}
	res := &PartitionResult{K: pr.K, InfoLossFrac: pr.InfoLossFrac}
	sampled := 0
	for _, cluster := range pr.Clusters {
		g := PartitionGroup{Size: len(cluster), Tuples: cluster}
		if len(cluster) > 0 {
			for _, v := range rows[sampled] {
				g.Sample = append(g.Sample, strs[v])
			}
			sampled++
		}
		res.Partitions = append(res.Partitions, g)
	}
	return res, nil
}

// ValueGroup is one cluster of co-occurring attribute values.
type ValueGroup struct {
	// Tuples is how many tuples (or tuple clusters) the group spans.
	Tuples    int  `json:"tuples"`
	Duplicate bool `json:"duplicate"`
	// Values are the attribute-qualified labels ("Attr=value").
	Values []string `json:"values"`
}

// ValuesResult is the outcome of attribute-value clustering.
type ValuesResult struct {
	PhiV               float64      `json:"phiv"`
	Threshold          float64      `json:"threshold"`
	NumGroups          int          `json:"num_groups"`
	NumDuplicateGroups int          `json:"num_duplicate_groups"`
	DuplicateGroups    []ValueGroup `json:"duplicate_groups"`
}

func runValues(ctx context.Context, s *fd.Sets, p Params) (*ValuesResult, error) {
	if err := step(ctx, "value clustering"); err != nil {
		return nil, err
	}
	c := s.Columns()
	vc, err := ClusterValues(ctx, s, 0, fv(p.PhiV), defaultB, false)
	if err != nil {
		return nil, err
	}
	strs, err := c.ValueStrings()
	if err != nil {
		return nil, err
	}
	names := c.AttrNames()
	res := &ValuesResult{
		PhiV: fv(p.PhiV), Threshold: vc.Threshold,
		NumGroups: len(vc.Groups), DuplicateGroups: []ValueGroup{},
	}
	for _, gi := range vc.DuplicateGroups() {
		g := vc.Groups[gi]
		res.NumDuplicateGroups++
		res.DuplicateGroups = append(res.DuplicateGroups, ValueGroup{
			Tuples: g.DCF.SupportLen(), Duplicate: true, Values: valueLabels(c, names, strs, g.Values),
		})
	}
	return res, nil
}

// valueLabels renders value ids attribute-qualified ("Attr=value").
func valueLabels(c relation.Columns, names, strs []string, ids []int32) []string {
	var out []string
	for _, v := range ids {
		out = append(out, names[c.ValueAttr(v)]+"="+strs[v])
	}
	return out
}

// MergeStep is one agglomerative merge of the attribute dendrogram.
type MergeStep struct {
	Left  int     `json:"left"`
	Right int     `json:"right"`
	Node  int     `json:"node"`
	Loss  float64 `json:"loss"`
	K     int     `json:"k"`
}

// GroupAttrsResult is the outcome of attribute grouping.
type GroupAttrsResult struct {
	// Attrs are the A^D attribute names (the clustering's objects).
	Attrs              []string    `json:"attrs"`
	NumDuplicateGroups int         `json:"num_duplicate_groups"`
	Merges             []MergeStep `json:"merges"`
	// Dendrogram is the ASCII rendering of the merge sequence.
	Dendrogram string `json:"dendrogram"`
}

// ClusterValues clusters the attribute values of the instance of the
// job's kernel s at φV with branching factor b, over the tuples
// themselves or — with double — over the tuple clusters of a φT
// compression pass (double clustering, for large instances; at φT = 0
// those are Π_R's classes, read off s). It is the one composition of
// that step: the values and group-attrs runners, FD-RANK and the
// facade's Miner all call it.
func ClusterValues(ctx context.Context, s *fd.Sets, phiT, phiV float64, b int, double bool) (*values.Clustering, error) {
	c := s.Columns()
	var objs []limbo.Obj
	var err error
	if !double {
		objs, err = values.ObjectsColumnsCtx(ctx, c)
	} else {
		var assign []int
		var k int
		if assign, k, err = tuples.CompressColumns(ctx, s, phiT, b); err != nil {
			return nil, err
		}
		if err = step(ctx, "value clustering over tuple clusters"); err != nil {
			return nil, err
		}
		objs, err = values.ObjectsOverClustersColumnsCtx(ctx, c, assign, k)
	}
	if err != nil {
		return nil, err
	}
	return values.ClusterCtx(ctx, objs, phiV, b, c.M()), nil
}

// GroupAttributes clusters the values (ClusterValues) and then the
// attributes of A^D by the duplicate value groups they share, returning
// the grouping with the value clustering it was derived from.
func GroupAttributes(ctx context.Context, s *fd.Sets, phiT, phiV float64, b int, double bool) (*attrs.Grouping, *values.Clustering, error) {
	if err := step(ctx, "value clustering"); err != nil {
		return nil, nil, err
	}
	vc, err := ClusterValues(ctx, s, phiT, phiV, b, double)
	if err != nil {
		return nil, nil, err
	}
	if err := step(ctx, "attribute grouping"); err != nil {
		return nil, nil, err
	}
	return attrs.GroupNamesCtx(ctx, s.Columns().AttrNames(), vc), vc, nil
}

// largeInstance is the tuple count above which FD-RANK's value
// clustering switches to double clustering (a variable only so the
// differential table can reach that path on small relations).
var largeInstance = 5000

// RankGrouping is the attribute grouping FD-RANK ranks against:
// GroupAttributes with double clustering exactly when the instance is
// large.
func RankGrouping(ctx context.Context, s *fd.Sets, phiT, phiV float64, b int) (*attrs.Grouping, *values.Clustering, error) {
	return GroupAttributes(ctx, s, phiT, phiV, b, s.Columns().N() > largeInstance)
}

func runGroupAttrs(ctx context.Context, s *fd.Sets, p Params) (*GroupAttrsResult, error) {
	g, vc, err := GroupAttributes(ctx, s, fv(p.PhiT), fv(p.PhiV), defaultB, p.Double)
	if err != nil {
		return nil, err
	}
	names := s.Columns().AttrNames()
	res := &GroupAttrsResult{
		NumDuplicateGroups: len(vc.DuplicateGroups()),
		Dendrogram:         g.Dendrogram().ASCII(78),
		Merges:             []MergeStep{},
	}
	for _, ix := range g.AttrIdx {
		res.Attrs = append(res.Attrs, names[ix])
	}
	for _, m := range g.Res.Merges {
		res.Merges = append(res.Merges, MergeStep{Left: m.Left, Right: m.Right, Node: m.Node, Loss: m.Loss, K: m.K})
	}
	return res, nil
}

// FDItem is a functional dependency with named attributes.
type FDItem struct {
	LHS   []string `json:"lhs"`
	RHS   []string `json:"rhs"`
	Label string   `json:"label"`
}

func newFDItem(names []string, f fd.FD) FDItem {
	item := FDItem{Label: f.Format(names), LHS: []string{}, RHS: []string{}}
	for _, a := range f.LHS.Attrs() {
		item.LHS = append(item.LHS, names[a])
	}
	for _, a := range f.RHS.Attrs() {
		item.RHS = append(item.RHS, names[a])
	}
	return item
}

// FDsResult is the outcome of exact dependency mining.
type FDsResult struct {
	NumMinimal int      `json:"num_minimal"`
	Cover      []FDItem `json:"cover"`
}

// minedFDs discovers the minimal FD set. Under WithIntermediates it goes
// through the delta path — the minimal set an earlier job left for a
// prefix of the rows is rechecked against the rows appended since — and
// leaves the state at this row count behind; otherwise it mines the
// columns directly and builds no state nobody would keep.
func minedFDs(ctx context.Context, s *fd.Sets) ([]fd.FD, error) {
	if err := step(ctx, "dependency mining"); err != nil {
		return nil, err
	}
	im := intermediatesOf(ctx)
	if im == nil {
		return fd.TANEColumnsCtx(ctx, s)
	}
	var prev *fd.MineState // nil: scratch run
	if data, ok := im.LoadFDState(); !ok {
		obs.DeltaFallbacks.With(obs.FallbackNoState).Inc()
	} else if prev, _ = fd.DecodeState(data); prev == nil {
		obs.DeltaFallbacks.With(obs.FallbackCorruptState).Inc()
	}
	start := time.Now()
	fds, next, delta, err := fd.DiscoverDeltaColumns(ctx, s, prev)
	if err != nil {
		return nil, err
	}
	if delta {
		obs.DeltaRemineSeconds.Observe(time.Since(start).Seconds())
	}
	im.SaveFDState(fd.EncodeState(next))
	return fds, nil
}

func runMineFDs(ctx context.Context, s *fd.Sets) (*FDsResult, error) {
	fds, err := minedFDs(ctx, s)
	if err != nil {
		return nil, err
	}
	if err := step(ctx, "minimum cover"); err != nil {
		return nil, err
	}
	names := s.Columns().AttrNames()
	res := &FDsResult{NumMinimal: len(fds), Cover: []FDItem{}}
	for _, f := range fd.MinCover(fds) {
		res.Cover = append(res.Cover, newFDItem(names, f))
	}
	return res, nil
}

// MVDItem is a multivalued dependency with named attributes.
type MVDItem struct {
	LHS   []string `json:"lhs"`
	RHS   []string `json:"rhs"`
	Label string   `json:"label"`
}

// MVDsResult is the outcome of MVD mining (FD-implied suppressed).
type MVDsResult struct {
	MaxLHS int       `json:"max_lhs"`
	MVDs   []MVDItem `json:"mvds"`
}

func runMineMVDs(ctx context.Context, s *fd.Sets, p Params) (*MVDsResult, error) {
	if err := step(ctx, "MVD mining"); err != nil {
		return nil, err
	}
	mvds, err := fd.MineMVDsCtx(ctx, s, p.MaxLHS, true)
	if err != nil {
		return nil, err
	}
	names := s.Columns().AttrNames()
	res := &MVDsResult{MaxLHS: p.MaxLHS, MVDs: []MVDItem{}}
	for _, v := range mvds {
		item := MVDItem(newFDItem(names, fd.FD{LHS: v.LHS, RHS: v.RHS}))
		item.Label = v.Format(names)
		res.MVDs = append(res.MVDs, item)
	}
	return res, nil
}

// ApproxFDItem is an approximate dependency with its g3 error.
type ApproxFDItem struct {
	FD FDItem  `json:"fd"`
	G3 float64 `json:"g3"`
}

// ApproxFDsResult is the outcome of approximate dependency mining.
type ApproxFDsResult struct {
	Eps    float64        `json:"eps"`
	MaxLHS int            `json:"max_lhs"`
	FDs    []ApproxFDItem `json:"fds"`
}

func runApproxFDs(ctx context.Context, s *fd.Sets, p Params) (*ApproxFDsResult, error) {
	if err := step(ctx, "approximate dependency mining"); err != nil {
		return nil, err
	}
	fds, err := fd.MineApproxColumns(ctx, s, fv(p.Eps), p.MaxLHS)
	if err != nil {
		return nil, err
	}
	names := s.Columns().AttrNames()
	res := &ApproxFDsResult{Eps: fv(p.Eps), MaxLHS: p.MaxLHS, FDs: []ApproxFDItem{}}
	for _, a := range fds {
		res.FDs = append(res.FDs, ApproxFDItem{FD: newFDItem(names, a.FD), G3: a.Err})
	}
	return res, nil
}

// RankedFDItem is one FD-RANK output row with its duplication measures.
type RankedFDItem struct {
	FD      FDItem  `json:"fd"`
	Rank    float64 `json:"rank"`
	Updated bool    `json:"updated"`
	RAD     float64 `json:"rad"`
	RTR     float64 `json:"rtr"`
}

// RankFDsResult is the outcome of the full FD-RANK pipeline.
type RankFDsResult struct {
	Psi        float64        `json:"psi"`
	NumMinimal int            `json:"num_minimal"`
	CoverSize  int            `json:"cover_size"`
	Ranked     []RankedFDItem `json:"ranked"`
}

// fdRanking is the outcome of the FD-RANK pipeline: the minimum cover
// and its ranking, the size of the minimal set the cover was reduced
// from, and the attribute grouping it was ranked against with the value
// clustering behind it.
type fdRanking struct {
	ranked     []fdrank.Ranked
	numMinimal int
	cover      []fd.FD
	grouping   *attrs.Grouping
	values     *values.Clustering
}

// rankedFDs is the FD-RANK pipeline shared by rank-fds, decompose and
// report: dependency mining, minimum cover, value clustering and
// attribute grouping (RankGrouping at φT = φV = 0), ranking.
func rankedFDs(ctx context.Context, s *fd.Sets, psi float64) (*fdRanking, error) {
	fds, err := minedFDs(ctx, s)
	if err != nil {
		return nil, err
	}
	cover := fd.MinCover(fds)
	g, vc, err := RankGrouping(ctx, s, 0, 0, defaultB)
	if err != nil {
		return nil, err
	}
	if err := step(ctx, "ranking"); err != nil {
		return nil, err
	}
	return &fdRanking{
		ranked: fdrank.Rank(cover, g, psi), numMinimal: len(fds), cover: cover,
		grouping: g, values: vc,
	}, nil
}

func runRankFDs(ctx context.Context, s *fd.Sets, p Params) (*RankFDsResult, error) {
	psi := fv(p.Psi)
	fr, err := rankedFDs(ctx, s, psi)
	if err != nil {
		return nil, err
	}
	names := s.Columns().AttrNames()
	res := &RankFDsResult{Psi: psi, NumMinimal: fr.numMinimal, CoverSize: len(fr.cover), Ranked: []RankedFDItem{}}
	for _, rf := range fr.ranked {
		ms, err := measures.OfSets(s, rf.FD.Attrs().Attrs())
		if err != nil {
			return nil, err
		}
		res.Ranked = append(res.Ranked, RankedFDItem{
			FD: newFDItem(names, rf.FD), Rank: rf.Rank, Updated: rf.Updated,
			RAD: ms.RAD, RTR: ms.RTR,
		})
	}
	return res, nil
}

// RelationSummary is the shape of a decomposition output relation.
type RelationSummary struct {
	Name   string   `json:"name"`
	Attrs  []string `json:"attrs"`
	Tuples int      `json:"tuples"`
}

// DecomposeResult is a lossless vertical decomposition on the
// top-ranked decomposable dependency.
type DecomposeResult struct {
	FD          FDItem          `json:"fd"`
	Rank        float64         `json:"rank"`
	S1          RelationSummary `json:"s1"`
	S2          RelationSummary `json:"s2"`
	CellsBefore int             `json:"cells_before"`
	CellsAfter  int             `json:"cells_after"`
	Reduction   float64         `json:"reduction"`
	RAD         float64         `json:"rad"`
	RTR         float64         `json:"rtr"`
}

func runDecompose(ctx context.Context, s *fd.Sets, p Params) (*DecomposeResult, error) {
	fr, err := rankedFDs(ctx, s, fv(p.Psi))
	if err != nil {
		return nil, err
	}
	if err := step(ctx, "decomposition"); err != nil {
		return nil, err
	}
	c := s.Columns()
	for _, rf := range fr.ranked {
		res, err := decompose.OnSets(s, rf.FD)
		if err != nil {
			continue // e.g. the FD covers every attribute
		}
		if err := res.Lossless(c, rf.FD); err != nil {
			continue
		}
		return &DecomposeResult{
			FD: newFDItem(c.AttrNames(), rf.FD), Rank: rf.Rank,
			S1:          RelationSummary{Name: res.S1.Name, Attrs: res.S1.Attrs, Tuples: res.S1.N()},
			S2:          RelationSummary{Name: res.S2.Name, Attrs: res.S2.Attrs, Tuples: res.S2.N()},
			CellsBefore: res.CellsBefore, CellsAfter: res.CellsAfter,
			Reduction: res.Reduction, RAD: res.RAD, RTR: res.RTR,
		}, nil
	}
	return nil, fmt.Errorf("task: no decomposable dependency found")
}

// JoinCandidate is one joinable attribute pair across relations.
type JoinCandidate struct {
	FromRelation string  `json:"from_relation"`
	FromAttr     string  `json:"from_attr"`
	ToRelation   string  `json:"to_relation"`
	ToAttr       string  `json:"to_attr"`
	Containment  float64 `json:"containment"`
	Jaccard      float64 `json:"jaccard"`
	FromDistinct int     `json:"from_distinct"`
	ToDistinct   int     `json:"to_distinct"`
}

// JoinsResult is the outcome of cross-relation join discovery — the one
// multi-relation task, exposed for the CLI's -json mode.
type JoinsResult struct {
	MinContainment float64         `json:"min_containment"`
	Candidates     []JoinCandidate `json:"candidates"`
}

// Joins discovers join paths across several relations.
func Joins(rels []relation.Columns, minContainment float64, minDistinct int) (*JoinsResult, error) {
	cands, err := joins.FindJoinable(rels, minContainment, minDistinct)
	if err != nil {
		return nil, err
	}
	res := &JoinsResult{MinContainment: minContainment, Candidates: []JoinCandidate{}}
	for _, c := range cands {
		res.Candidates = append(res.Candidates, JoinCandidate(c)) // same fields, plus JSON tags
	}
	return res, nil
}
