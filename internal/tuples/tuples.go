// Package tuples implements the paper's tuple-clustering tasks
// (Section 6.1): the probabilistic tuple representation, duplicate and
// near-duplicate tuple detection, horizontal partitioning with the
// δI/δH heuristic for choosing k, and the tuple-axis compression used by
// double clustering.
package tuples

import (
	"context"
	"sort"

	"structmine/internal/ib"
	"structmine/internal/it"
	"structmine/internal/limbo"
	"structmine/internal/relation"
)

// Objects converts each tuple t into a clustering object with
// p(t) = 1/n and p(V|t) uniform over the tuple's m attribute values
// (equations 4 and 5).
func Objects(r *relation.Relation) []limbo.Obj {
	n := r.N()
	objs := make([]limbo.Obj, n)
	for t := 0; t < n; t++ {
		objs[t] = limbo.Obj{
			ID:   int32(t),
			W:    1.0 / float64(n),
			Cond: it.Uniform(r.Row(t)),
		}
	}
	return objs
}

// ObjectsColumnsCtx is Objects over the column interface: one page
// stripe per worker is resident at a time, and each tuple's object is
// identical to the resident construction (same ids, same uniform
// conditionals), so downstream clustering is bit-identical. Page stripes
// fan across the context's worker budget, each worker writing the
// per-tuple slots of its own pages — object construction is pure
// per-index, so the result is the same for any budget.
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
	// Assign[t] associates every tuple with its closest summary
	// (Phase 3); Cluster is -1 when there are no multi-tuple summaries.
	Assign []limbo.Assignment
	// Groups[s] lists the tuples associated with summary s.
	Groups [][]int
	// Tree statistics.
	LeafCount int
	Threshold float64
}

// FindDuplicatesCtx runs the three-step procedure over a resident
// relation: build tuple summaries at φT, keep the summaries describing
// several tuples, and associate every tuple with its closest summary. A
// tuple only joins a summary's group when its association loss is within
// the Phase 1 threshold — beyond that it is not a duplicate candidate
// (Cluster = -1), which keeps the groups presented to the analyst small
// and meaningful. The report's DCFs are the Summary's plain copies, not
// views into the tree's pooled slabs.
func FindDuplicatesCtx(ctx context.Context, r *relation.Relation, phiT float64, b int) *DuplicateReport {
	objs := Objects(r)
	return Summarize(ctx, objs, r.M(), phiT, b).Duplicates(ctx, objs)
}

// FindDuplicatesColumns is FindDuplicatesCtx over the paged column
// interface: the tuple objects stream from page stripes and everything
// after them is shared, so the report is identical to the resident one.
func FindDuplicatesColumns(ctx context.Context, c relation.Columns, phiT float64, b int) (*DuplicateReport, error) {
	objs, err := ObjectsColumnsCtx(ctx, c)
	if err != nil {
		return nil, err
	}
	return Summarize(ctx, objs, c.M(), phiT, b).Duplicates(ctx, objs), nil
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

// insertUnit feeds the Phase 1 tree the tuple objects it has not yet
// seen, objs[tree.Inserted():], with unit mass instead of 1/n. Unit
// weights make the tree independent of the eventual row count, which is
// what lets an append resume a persisted tree: the objects inserted for
// the suffix are exactly the ones a from-scratch pass over the extended
// relation would have inserted at those positions. Leaf-bounded
// splitting is count-based, so the tree shape is scale-invariant; masses
// are normalized to 1/n when the leaves are handed to Phase 2.
func insertUnit(tree *limbo.Tree, objs []limbo.Obj) {
	for _, o := range objs[tree.Inserted():] {
		o.W = 1
		tree.Insert(o)
	}
}

// PartitionTreeCtx builds the Phase 1 tree for horizontal partitioning
// from scratch: leaf-bounded, over unit-weight tuple objects. Persist
// it with limbo.EncodeTree and resume it after an append by handing the
// bytes to PartitionColumns.
func PartitionTreeCtx(ctx context.Context, r *relation.Relation, maxLeaves, b int) *limbo.Tree {
	tree := newPartitionTree(ctx, maxLeaves, b)
	insertUnit(tree, Objects(r))
	return tree
}

func newPartitionTree(ctx context.Context, maxLeaves, b int) *limbo.Tree {
	return limbo.NewTreeCtx(ctx, limbo.Config{B: b, MaxLeafEntries: maxLeaves})
}

// PartitionFromTree runs Phases 2 and 3 over an already-built (or
// resumed) Phase 1 tree. The unit-mass leaves are rescaled to tuple
// probabilities p(t) = 1/n before AIB so the information curve keeps
// the paper's normalization.
func PartitionFromTree(ctx context.Context, r *relation.Relation, tree *limbo.Tree, k int) *PartitionResult {
	return partitionFromTree(ctx, Objects(r), tree, k)
}

// PartitionColumns performs a full horizontal partitioning over the
// column interface: Phase 1 bounded to maxLeaves summaries, AIB over the
// leaves, k selection via the rate-of-change heuristic (k = 0 requests
// automatic choice), and a Phase 3 scan, with the tuple objects streamed
// once and shared by Phases 1 and 3. The returned leaves are rescaled
// heap copies (limbo.Scaled), not views into the tree's pooled slabs.
//
// state, when non-nil, is a persisted Phase 1 tree
// (limbo.EncodeTree) of a prefix of c: it is decoded and absorbs only
// the rows it has not yet seen. Because decode+insert is bit-identical
// to an uninterrupted build, the result matches a from-scratch run
// exactly; state that does not decode, or claims more rows than c has,
// is ignored. It returns the result, the Phase 1 tree to persist for the
// next append, and whether state was resumed.
func PartitionColumns(ctx context.Context, c relation.Columns, maxLeaves, b, k int, state []byte) (*PartitionResult, *limbo.Tree, bool, error) {
	objs, err := ObjectsColumnsCtx(ctx, c)
	if err != nil {
		return nil, nil, false, err
	}
	var tree *limbo.Tree
	if state != nil {
		if t, err := limbo.DecodeTree(ctx, state); err == nil && t.Inserted() <= len(objs) {
			tree = t
		}
	}
	resumed := tree != nil
	if !resumed {
		tree = newPartitionTree(ctx, maxLeaves, b)
	}
	insertUnit(tree, objs)
	return partitionFromTree(ctx, objs, tree, k), tree, resumed, nil
}

func partitionFromTree(ctx context.Context, objs []limbo.Obj, tree *limbo.Tree, k int) *PartitionResult {
	n := float64(len(objs))
	raw := tree.Leaves()
	leaves := make([]*limbo.DCF, len(raw))
	for i, d := range raw {
		leaves[i] = limbo.Scaled(d, 1/n)
	}
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
	clusters, err := res.ClustersAt(k)
	if err != nil {
		// k is validated above; fall back to all leaves.
		clusters, _ = res.ClustersAt(len(leaves))
	}
	reps := limbo.RepsFromClusters(leaves, clusters)
	assign := limbo.AssignCtx(ctx, reps, objs)

	groups := make([][]int, len(reps))
	for t, a := range assign {
		if a.Cluster >= 0 {
			groups[a.Cluster] = append(groups[a.Cluster], t)
		}
	}
	sort.Slice(groups, func(i, j int) bool { return len(groups[i]) > len(groups[j]) })

	leafInfo := 0.0
	if len(curve) > 0 {
		leafInfo = curve[0].I // I(C_leaves;V)
	}
	lossFrac := 0.0
	if leafInfo > 0 {
		lossFrac = (leafInfo - limbo.MutualInfoOfAssignment(objs, assign, len(reps))) / leafInfo
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
// over a resident relation: a Phase 1 pass at φT (Summarize) whose leaf
// summaries become the compressed T axis over which attribute values are
// then expressed — leaf membership recorded at insertion, no quadratic
// Phase 3 scan on large instances. It returns the per-tuple cluster id
// and the number of tuple clusters.
func CompressCtx(ctx context.Context, r *relation.Relation, phiT float64, b int) ([]int, int) {
	return Summarize(ctx, Objects(r), r.M(), phiT, b).Clusters()
}
