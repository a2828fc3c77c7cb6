// Package values implements attribute-value clustering (Section 6.2):
// the value representation p(T|v), the ADCF extension carrying matrix O
// (per-attribute support counts, summed per group from Phase 1's
// membership), detection of perfectly and almost perfectly co-occurring
// value groups, and the split of the clustering into duplicate (C_V^D)
// and non-duplicate (C_V^ND) groups that feeds attribute grouping.
package values

import (
	"context"
	"sync"

	"structmine/internal/exec"
	"structmine/internal/it"
	"structmine/internal/limbo"
	"structmine/internal/relation"
)

// ObjectsColumnsCtx converts each attribute value v into a clustering
// object with p(v) = 1/d and p(T|v) uniform over the tuples containing v
// (equations 6 and 7), carrying its O-matrix row as the object's Counts
// payload (one non-zero entry: its own attribute's count). Postings
// stream from the value index, which lists each value's tuple ids in
// ascending order for a resident relation and a paged table alike. The
// per-attribute index walks
// fan across the context's worker budget, each filling the objs[v] slots
// of its own attributes — disjoint writes, pure per-value construction,
// so results are bit-identical for any budget.
func ObjectsColumnsCtx(ctx context.Context, c relation.Columns) ([]limbo.Obj, error) {
	d := c.D()
	m := c.M()
	objs := make([]limbo.Obj, d)
	err := forAttrs(ctx, c.N(), m, func(s *postingScratch, attr int) error {
		return c.VisitValues(attr, &s.runs, func(v int32, count int, runs []relation.Run) error {
			counts := make([]int64, m)
			counts[attr] = int64(count)
			s.tuples = expandRuns(s.tuples[:0], runs)
			objs[v] = limbo.Obj{
				ID:     v,
				W:      1.0 / float64(d),
				Cond:   it.Uniform(s.tuples), // Uniform copies; tuples is reused
				Counts: counts,
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return objs, nil
}

// ObjectsOverClusters expresses values over a compressed tuple axis
// (double clustering): p(c_t|v) is the fraction of v's occurrences that
// fall in tuple cluster c_t. It is ObjectsOverClustersColumnsCtx over
// the resident relation.
func ObjectsOverClusters(r *relation.Relation, tupleCluster []int, k int) []limbo.Obj {
	objs, _ := ObjectsOverClustersColumnsCtx(context.Background(), relation.AsColumns(r), tupleCluster, k) // no failing reads in memory
	return objs
}

// ObjectsOverClustersColumnsCtx is ObjectsOverClusters over the column
// interface, parallelized per attribute like ObjectsColumnsCtx. Each
// worker counts a value's occurrences per tuple cluster in its own slab
// of k integers (clusterCounts) and divides once per cluster,
// p(c_t|v) = n/n_v, one correctly rounded division: two values with the
// same distribution get bit-identical conditionals — the identity
// Phase 1 at φV = 0 groups on.
func ObjectsOverClustersColumnsCtx(ctx context.Context, c relation.Columns, tupleCluster []int, k int) ([]limbo.Obj, error) {
	d := c.D()
	m := c.M()
	objs := make([]limbo.Obj, d)
	err := forAttrs(ctx, c.N(), m, func(s *clusterCounts, attr int) error {
		if s.n == nil {
			s.n = make([]int32, k)
		}
		return c.VisitValues(attr, &s.runs, func(v int32, count int, runs []relation.Run) error {
			counts := make([]int64, m)
			counts[attr] = int64(count)
			for _, r := range runs {
				for t := r.Start; t < r.Start+r.Len; t++ {
					if cl := tupleCluster[t]; cl >= 0 && cl < k {
						if s.n[cl] == 0 {
							s.touched = append(s.touched, int32(cl))
						}
						s.n[cl]++
					}
				}
			}
			objs[v] = limbo.Obj{
				ID:     v,
				W:      1.0 / float64(d),
				Cond:   s.shares(count),
				Counts: counts,
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return objs, nil
}

// clusterCounts is one worker's tally of a value's occurrences per tuple
// cluster: n[c] for every cluster, touched the clusters with n[c] > 0.
// shares reads and clears only the touched slots, so the slab is
// allocated once per worker and never rescanned.
type clusterCounts struct {
	n       []int32
	touched []int32
	es      []it.Entry
	runs    []relation.Run // the value-index decode buffer
}

// shares is p(c_t|v) from the tally of v's n_v occurrences, leaving the
// tally empty for the next value.
func (s *clusterCounts) shares(nv int) it.Vec {
	s.es = s.es[:0]
	for _, cl := range s.touched {
		s.es = append(s.es, it.Entry{Idx: cl, P: float64(s.n[cl]) / float64(nv)})
		s.n[cl] = 0
	}
	s.touched = s.touched[:0]
	return it.NewVec(s.es) // NewVec copies; es is reused
}

// forAttrs fans fn across the m attributes under the context's worker
// budget (exec.ColScan kernel, work estimated as one unit per cell),
// handing each worker a private reusable state S, one per worker of the
// plan. The first error (lowest attribute index wins) cancels the
// remainder.
func forAttrs[S any](ctx context.Context, n, m int, fn func(state *S, attr int) error) error {
	plan := exec.Plan(ctx, exec.ColScan, m, n*m)
	state := make([]S, plan.Workers())
	var (
		mu   sync.Mutex
		errA = -1
		err  error
	)
	plan.ForChunk(func(w, lo, hi int) {
		for a := lo; a < hi; a++ {
			mu.Lock()
			bail := errA >= 0 && errA < a
			mu.Unlock()
			if bail {
				return
			}
			if e := fn(&state[w], a); e != nil {
				mu.Lock()
				if errA < 0 || a < errA {
					errA, err = a, e
				}
				mu.Unlock()
				return
			}
		}
	})
	return err
}

// postingScratch is one worker's reusable state in ObjectsColumnsCtx:
// the value-index decode buffer and a value's expanded tuple list.
type postingScratch struct {
	runs   []relation.Run
	tuples []int32
}

// expandRuns appends the tuple ids a run list covers, ascending.
func expandRuns(dst []int32, runs []relation.Run) []int32 {
	for _, r := range runs {
		for t := r.Start; t < r.Start+r.Len; t++ {
			dst = append(dst, t)
		}
	}
	return dst
}

// Group is one cluster of attribute values with its ADCF summary: the
// DCF (p(c), p(T|c)) of its Phase 1 leaf and the leaf's row of matrix O.
type Group struct {
	DCF *limbo.DCF
	// O[a] is the number of tuples in which the leaf's members appear
	// within attribute a: the sum of their O rows, which merge by plain
	// addition. The members are the values Phase 1 put in the leaf (at
	// τ > 0 not necessarily Values); DCF.N counts them.
	O []int64
	// Values are the value ids associated with this summary by Phase 3
	// (at τ = 0, the group's own members).
	Values []int32
	// Duplicate marks membership in C_V^D: the group's values appear in
	// at least two tuples (or tuple clusters) AND in at least two
	// attributes.
	Duplicate bool
}

// Clustering is the outcome of attribute-value clustering.
type Clustering struct {
	Groups []Group
	// Assign[v] is the group index of value id v and the association
	// loss, 0 at τ = 0.
	Assign    []limbo.Assignment
	LeafCount int
	Threshold float64
}

// ClusterCtx runs the Section 6.2 procedure on pre-built value objects:
// Phase 1 at φV (limbo.Phase1Ctx), then Phase 3 association of every
// value with its closest summary. At τ = 0 Phase 1 is one hash pass over
// identical values, groups numbered by first member, and it already
// holds Phase 3's answer: a value's own group carries exactly its
// conditional, so Assign[v] is that group at loss 0 and no δI is
// computed. Above 0 Phase 3 scans every leaf (limbo.AssignCtx). Each
// group's O row (numAttrs wide) sums the Counts of the values Phase 1
// put in its leaf, and the duplicate flag is computed from the leaf's
// DCF and that row. When the context carries a scheduler grant, the
// returned Clustering's DCFs may live in pooled slabs and must not be
// retained past the grant's release (task runners copy what they keep).
func ClusterCtx(ctx context.Context, objs []limbo.Obj, phiV float64, b, numAttrs int) *Clustering {
	tau := limbo.ThresholdFor(phiV, objs)
	leaves, leafOf := limbo.Phase1Ctx(ctx, objs, tau, b)
	var assign []limbo.Assignment
	if tau == 0 {
		assign = make([]limbo.Assignment, len(objs))
		for v, g := range leafOf {
			assign[v].Cluster = int(g)
		}
	} else {
		assign = limbo.AssignCtx(ctx, leaves, objs)
	}

	c := &Clustering{
		Groups:    make([]Group, len(leaves)),
		Assign:    assign,
		LeafCount: len(leaves),
		Threshold: tau,
	}
	for i, d := range leaves {
		c.Groups[i] = Group{DCF: d, O: make([]int64, numAttrs)}
	}
	for v, g := range leafOf {
		o := c.Groups[g].O
		for a, n := range objs[v].Counts {
			o[a] += n
		}
	}
	for i := range c.Groups {
		g := &c.Groups[i]
		g.Duplicate = isDuplicate(g.DCF, g.O)
	}
	for v, a := range assign {
		if a.Cluster >= 0 {
			g := &c.Groups[a.Cluster]
			g.Values = append(g.Values, objs[v].ID)
		}
	}
	return c
}

// isDuplicate applies the C_V^D test: non-zero conditional mass on at
// least two tuples (clusters) and non-zero O counts in at least two
// attributes.
func isDuplicate(d *limbo.DCF, o []int64) bool {
	if d.SupportLen() < 2 {
		return false
	}
	attrs := 0
	for _, c := range o {
		if c > 0 {
			attrs++
			if attrs >= 2 {
				return true
			}
		}
	}
	return false
}

// DuplicateGroups returns the indices of the C_V^D groups.
func (c *Clustering) DuplicateGroups() []int {
	var out []int
	for i, g := range c.Groups {
		if g.Duplicate {
			out = append(out, i)
		}
	}
	return out
}

// NonDuplicateGroups returns the indices of the C_V^ND groups.
func (c *Clustering) NonDuplicateGroups() []int {
	var out []int
	for i, g := range c.Groups {
		if !g.Duplicate {
			out = append(out, i)
		}
	}
	return out
}

// MatrixF builds the paper's matrix F: one row per attribute of A^D
// (attributes supporting at least one duplicate group), one column per
// C_V^D group, entries from the groups' O rows. It returns the rows and
// the attribute indices of A^D.
func (c *Clustering) MatrixF() (rows [][]int64, attrIdx []int) {
	dups := c.DuplicateGroups()
	if len(dups) == 0 {
		return nil, nil
	}
	m := len(c.Groups[dups[0]].O)
	full := make([][]int64, m)
	for a := 0; a < m; a++ {
		full[a] = make([]int64, len(dups))
	}
	for j, gi := range dups {
		for a, cnt := range c.Groups[gi].O {
			full[a][j] = cnt
		}
	}
	for a := 0; a < m; a++ {
		nonzero := false
		for _, v := range full[a] {
			if v != 0 {
				nonzero = true
				break
			}
		}
		if nonzero {
			rows = append(rows, full[a])
			attrIdx = append(attrIdx, a)
		}
	}
	return rows, attrIdx
}
