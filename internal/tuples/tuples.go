// Package tuples implements the paper's tuple-clustering tasks
// (Section 6.1): the probabilistic tuple representation, duplicate and
// near-duplicate tuple detection, horizontal partitioning with the
// δI/δH heuristic for choosing k, and the tuple-axis compression used by
// double clustering.
package tuples

import (
	"context"
	"math"
	"sort"

	"structmine/internal/fd"
	"structmine/internal/ib"
	"structmine/internal/it"
	"structmine/internal/limbo"
	"structmine/internal/relation"
)

// Objects is ObjectsColumnsCtx over a resident relation.
func Objects(r *relation.Relation) []limbo.Obj {
	objs, _ := ObjectsColumnsCtx(context.Background(), relation.AsColumns(r)) // no failing reads in memory
	return objs
}

// ObjectsColumnsCtx converts each tuple t into a clustering object with
// p(t) = 1/n and p(V|t) uniform over the tuple's m attribute values
// (equations 4 and 5), over the column interface: one page stripe per
// worker is resident at a time. Page stripes fan across the context's
// worker budget, each worker writing the per-tuple slots of its own
// pages — object construction is pure per-index, so the result is the
// same for any budget and for any Columns implementation of the same
// instance, and downstream clustering is bit-identical.
func ObjectsColumnsCtx(ctx context.Context, c relation.Columns) ([]limbo.Obj, error) {
	n := c.N()
	m := c.M()
	objs := make([]limbo.Obj, n)
	attrs := relation.AllAttrs(c)
	pageRows := c.PageRows()
	scan := relation.PlanScan(ctx, c, attrs)
	scratch := make([][]int32, scan.Workers())
	err := scan.Run(func(w, p int, cols [][]int32) error {
		row := scratch[w]
		if row == nil {
			row = make([]int32, m)
			scratch[w] = row
		}
		base := p * pageRows
		rows := c.PageLen(p)
		for i := 0; i < rows; i++ {
			for a := 0; a < m; a++ {
				row[a] = cols[a][i]
			}
			objs[base+i] = limbo.Obj{
				ID:   int32(base + i),
				W:    1.0 / float64(n),
				Cond: it.Uniform(row), // Uniform copies; row is reused
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return objs, nil
}

// DuplicateReport is the outcome of the duplicate-tuple procedure of
// Section 6.1.1.
type DuplicateReport struct {
	// Summaries are the leaf DCFs representing more than one tuple
	// (p(c) > 1/n).
	Summaries []*limbo.DCF
	// Assign[t] associates every tuple with its summary. A tuple that
	// joins no group has Cluster -1: at φT = 0, where no Phase 3 runs,
	// with Loss +Inf; above 0 with the loss to its closest summary, which
	// exceeds the threshold (+Inf when there are no summaries). A member's
	// Loss is its Phase 3 association loss, 0 at φT = 0.
	Assign []limbo.Assignment
	// Groups[s] lists the tuples associated with summary s.
	Groups [][]int
	// Tree statistics.
	LeafCount int
	Threshold float64
}

// FindDuplicatesCtx runs the three-step procedure over a resident
// relation: FindDuplicatesColumns on a kernel of its own.
func FindDuplicatesCtx(ctx context.Context, r *relation.Relation, phiT float64, b int) *DuplicateReport {
	rep, _ := FindDuplicatesColumns(ctx, fd.NewSets(ctx, relation.AsColumns(r)), phiT, b) // no failing reads in memory
	return rep
}

// FindDuplicatesColumns runs the three-step procedure over the instance
// of the job's kernel s: build tuple summaries at φT, keep the summaries
// describing several tuples, and associate every tuple with its closest
// summary. A tuple only joins a summary's group when its association
// loss is within the Phase 1 threshold — beyond that it is not a
// duplicate candidate (Cluster = -1), which keeps the groups presented
// to the analyst small and meaningful. The tuple objects stream from
// page stripes; the report's DCFs are the Summary's plain copies, not
// views into the tree's pooled slabs.
//
// At φT = 0 (the default) the summaries are the classes of identical
// tuples, and those are Π_R's classes: exactDuplicates reads them off
// s, with no tuple objects, no Phase 1 pass and no Phase 3 scan.
func FindDuplicatesColumns(ctx context.Context, s *fd.Sets, phiT float64, b int) (*DuplicateReport, error) {
	if phiT == 0 {
		return exactDuplicates(s)
	}
	objs, err := ObjectsColumnsCtx(ctx, s.Columns())
	if err != nil {
		return nil, err
	}
	return Summarize(ctx, objs, phiT, b).Duplicates(ctx, objs), nil
}

// exactDuplicates is duplicate detection at φT = 0, read off Π_R: the
// groups are numbered by first member, as Phase 1 at τ = 0 numbers its
// leaves, and a tuple of a multi-tuple group joins it at loss 0; any
// other tuple joins no group (Cluster -1, Loss +Inf), since its row
// differs from every multi-tuple group's. A group's summary is the DCF
// Phase 1 builds for it — NewDCF of the first member absorbing the others
// in tuple order — from one fetched row per multi-tuple group, since its
// members' rows are identical.
func exactDuplicates(s *fd.Sets) (*DuplicateReport, error) {
	c := s.Columns()
	n := c.N()
	of, k, err := s.GroupOf(relation.AllAttrs(c))
	if err != nil {
		return nil, err
	}
	size := make([]int, k)
	for _, g := range of {
		size[g]++
	}
	multiOf := make([]int, k) // group → its index in Groups, or -1
	nMulti := 0
	for g, sz := range size {
		multiOf[g] = -1
		if sz >= 2 {
			multiOf[g], nMulti = nMulti, nMulti+1
		}
	}
	rep := &DuplicateReport{Assign: make([]limbo.Assignment, n), Groups: make([][]int, nMulti), LeafCount: k}
	for t, g := range of {
		mi := multiOf[g]
		rep.Assign[t] = limbo.Assignment{Cluster: mi}
		if mi < 0 {
			rep.Assign[t].Loss = math.Inf(1)
			continue
		}
		rep.Groups[mi] = append(rep.Groups[mi], t)
	}
	firsts := make([]int, nMulti)
	for mi, g := range rep.Groups {
		firsts[mi] = g[0]
	}
	rows, err := relation.FetchRows(c, firsts)
	if err != nil {
		return nil, err
	}
	w := 1.0 / float64(n)
	for mi, g := range rep.Groups {
		cond := it.Uniform(rows[mi])
		d := limbo.NewDCF(limbo.Obj{ID: int32(g[0]), W: w, Cond: cond})
		for _, t := range g[1:] {
			d.AbsorbObj(limbo.Obj{ID: int32(t), W: w, Cond: cond})
		}
		rep.Summaries = append(rep.Summaries, d)
	}
	return rep, nil
}

// PartitionResult is the outcome of horizontal partitioning
// (Section 6.1.2).
type PartitionResult struct {
	// Leaves are the Phase 1 summaries; Res the AIB merge sequence over
	// them; Curve the information trajectory used by the k heuristic.
	Leaves []*limbo.DCF
	Res    *ib.Result
	Curve  []ib.InfoPoint
	// K is the number of partitions used (the heuristic's choice, or the
	// caller's override).
	K int
	// Clusters lists the tuple ids per partition, largest first;
	// Assign[t].Cluster indexes Clusters (tuple t is in
	// Clusters[Assign[t].Cluster]) and Assign[t].Loss is the δI of
	// associating t with that partition's representative.
	Assign   []limbo.Assignment
	Clusters [][]int
	// InfoLossFrac is (I(C_leaves;V) − I(C_k;V)) / I(C_leaves;V): how
	// much of the information held by the Phase 1 summaries the final
	// k-clustering gave up — the "loss of initial information after
	// Phase 3" the paper reports (9.45% for DBLP). Small values mean the
	// k clusters capture the structure the summaries saw.
	InfoLossFrac float64
}

// PartitionTreeCtx builds the Phase 1 tree for horizontal partitioning:
// leaf-bounded, streaming the tuple objects, which put the same mass
// 1/(n·m) on every value, so the tree runs on integer counts
// (limbo.StreamTreeCtx). PartitionFromTree runs the remaining phases
// over it.
func PartitionTreeCtx(ctx context.Context, r *relation.Relation, maxLeaves, b int) *limbo.Tree {
	return partitionTree(ctx, Objects(r), maxLeaves, b)
}

func partitionTree(ctx context.Context, objs []limbo.Obj, maxLeaves, b int) *limbo.Tree {
	return limbo.StreamTreeCtx(ctx, limbo.Config{B: b, MaxLeafEntries: maxLeaves}, objs)
}

// PartitionFromTree runs Phases 2 and 3 over an already-built Phase 1
// tree.
func PartitionFromTree(ctx context.Context, r *relation.Relation, tree *limbo.Tree, k int) *PartitionResult {
	return partitionFromTree(ctx, Objects(r), tree, k)
}

// PartitionColumns performs a full horizontal partitioning over the
// column interface: Phase 1 bounded to maxLeaves summaries, AIB over the
// leaves, k selection via the rate-of-change heuristic (k = 0 requests
// automatic choice), and a Phase 3 scan, with the tuple objects streamed
// once and shared by Phases 1 and 3. The returned leaves are the count
// tree's float DCFs on the heap, not views into its pooled slabs.
func PartitionColumns(ctx context.Context, c relation.Columns, maxLeaves, b, k int) (*PartitionResult, error) {
	objs, err := ObjectsColumnsCtx(ctx, c)
	if err != nil {
		return nil, err
	}
	return partitionFromTree(ctx, objs, partitionTree(ctx, objs, maxLeaves, b), k), nil
}

// partitionFromTree runs Phases 2 and 3. The leaf information and Phase
// 3's are both counted on the tree's kernel (Tree.Info, Tree.InfoOf).
func partitionFromTree(ctx context.Context, objs []limbo.Obj, tree *limbo.Tree, k int) *PartitionResult {
	leaves := tree.Leaves()
	res := limbo.Phase2Ctx(ctx, leaves, 1)
	curve := res.InfoCurve()

	if k <= 0 {
		k = ChooseK(curve)
	}
	if k > len(leaves) {
		k = len(leaves)
	}
	if k < 1 {
		k = 1
	}
	clusters, _ := res.ClustersAt(k) // k ∈ [1, len(leaves)]; no leaves give nil, nil
	reps := limbo.RepsFromClusters(leaves, clusters)
	assign := limbo.AssignCtx(ctx, reps, objs)

	groups := make([][]int, len(reps))
	for t, a := range assign {
		if a.Cluster >= 0 {
			groups[a.Cluster] = append(groups[a.Cluster], t)
		}
	}
	sort.Slice(groups, func(i, j int) bool { return len(groups[i]) > len(groups[j]) })

	leafInfo := tree.Info() // I(C_leaves;V)
	lossFrac := 0.0
	if leafInfo > 0 {
		lossFrac = (leafInfo - tree.InfoOf(objs, assign, len(reps))) / leafInfo
	}
	if lossFrac < 0 {
		lossFrac = 0 // Phase 3 can slightly beat the leaf partition
	}
	// Assign follows the sorted order — relabelled only now, because the
	// loss above sums in representative order.
	for ci, g := range groups {
		for _, t := range g {
			assign[t].Cluster = ci
		}
	}
	return &PartitionResult{
		Leaves: leaves, Res: res, Curve: curve, K: k,
		Assign: assign, Clusters: groups, InfoLossFrac: lossFrac,
	}
}

// ChooseK inspects the rates of change of I(Ck;V) along the merge
// sequence and returns the k just above the sharpest relative jump in
// merge loss — the paper's "examine the derivatives" heuristic made
// concrete. Returns 1 when no jump stands out.
func ChooseK(curve []ib.InfoPoint) int {
	// curve[0] is k=q (loss 0); merges follow in order of increasing i.
	if len(curve) < 4 {
		return 1
	}
	const (
		jumpFactor = 3.0
		window     = 6
	)
	var prior []float64
	for i := 1; i < len(curve); i++ {
		loss := curve[i].Loss
		if len(prior) >= 3 {
			recent := prior
			if len(recent) > window {
				recent = recent[len(recent)-window:]
			}
			med := median(recent)
			// The first merge whose loss jumps well above the recent
			// within-group merges marks the natural clustering: the k
			// just before that merge. A windowed median tracks the
			// gradual loss growth of agglomeration, so only genuine
			// regime changes trigger.
			if med > 0 && loss/med >= jumpFactor && curve[i].K+1 >= 2 {
				return curve[i].K + 1
			}
		}
		prior = append(prior, loss)
	}
	return 1
}

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// CompressCtx performs the tuple side of double clustering (Section 6.2)
// over a resident relation: CompressColumns on a kernel of its own.
func CompressCtx(ctx context.Context, r *relation.Relation, phiT float64, b int) ([]int, int) {
	assign, k, _ := CompressColumns(ctx, fd.NewSets(ctx, relation.AsColumns(r)), phiT, b) // no failing reads in memory
	return assign, k
}

// CompressColumns performs the tuple side of double clustering over the
// instance of the job's kernel s: a Phase 1 pass at φT (Summarize) whose
// leaf summaries become the compressed T axis over which attribute
// values are then expressed — leaf membership recorded at insertion, no
// quadratic Phase 3 scan on large instances. It returns the per-tuple
// cluster id and the number of tuple clusters. At φT = 0 the leaves are
// the classes of identical tuples numbered by first member, which is
// Π_R's grouping (Sets.GroupOf): no tuple object is built.
func CompressColumns(ctx context.Context, s *fd.Sets, phiT float64, b int) ([]int, int, error) {
	if phiT == 0 {
		return s.GroupOf(relation.AllAttrs(s.Columns()))
	}
	objs, err := ObjectsColumnsCtx(ctx, s.Columns())
	if err != nil {
		return nil, 0, err
	}
	assign, k := Summarize(ctx, objs, phiT, b).Clusters()
	return assign, k, nil
}
