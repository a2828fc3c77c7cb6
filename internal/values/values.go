// Package values implements attribute-value clustering (Section 6.2):
// the value representation p(T|v), the ADCF extension carrying matrix O
// (per-attribute support counts), detection of perfectly and almost
// perfectly co-occurring value groups, and the split of the clustering
// into duplicate (C_V^D) and non-duplicate (C_V^ND) groups that feeds
// attribute grouping.
package values

import (
	"context"
	"sort"
	"sync"

	"structmine/internal/exec"
	"structmine/internal/it"
	"structmine/internal/limbo"
	"structmine/internal/relation"
)

// ObjectsColumnsCtx converts each attribute value v into a clustering
// object with p(v) = 1/d and p(T|v) uniform over the tuples containing v
// (equations 6 and 7), carrying its O-matrix row as ADCF counts. Postings
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
	err := forAttrs(ctx, c.N(), m, func(w int, scratch *[]int32, attr int) error {
		return c.VisitValues(attr, func(v int32, count int, runs []relation.Run) error {
			counts := make([]int64, m)
			counts[attr] = int64(count)
			*scratch = expandRuns((*scratch)[:0], runs)
			objs[v] = limbo.Obj{
				ID:     v,
				W:      1.0 / float64(d),
				Cond:   it.Uniform(*scratch), // Uniform copies; scratch is reused
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

// ObjectsOverClustersColumnsCtx is ObjectsOverClusters over the column
// interface, parallelized per attribute like ObjectsColumnsCtx. Cluster
// mass accumulates in ascending tuple order — the same order the
// resident Stats scan feeds — so the float sums are bit-identical.
func ObjectsOverClustersColumnsCtx(ctx context.Context, c relation.Columns, tupleCluster []int, k int) ([]limbo.Obj, error) {
	d := c.D()
	m := c.M()
	objs := make([]limbo.Obj, d)
	err := forAttrs(ctx, c.N(), m, func(w int, scratch *[]int32, attr int) error {
		return c.VisitValues(attr, func(v int32, count int, runs []relation.Run) error {
			counts := make([]int64, m)
			counts[attr] = int64(count)
			mass := map[int32]float64{}
			dv := float64(count)
			for _, r := range runs {
				for t := r.Start; t < r.Start+r.Len; t++ {
					cl := tupleCluster[t]
					if cl >= 0 && cl < k {
						mass[int32(cl)] += 1.0 / dv
					}
				}
			}
			es := make([]it.Entry, 0, len(mass))
			for idx, p := range mass {
				es = append(es, it.Entry{Idx: idx, P: p})
			}
			objs[v] = limbo.Obj{
				ID:     v,
				W:      1.0 / float64(d),
				Cond:   it.NewVec(es),
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

// forAttrs fans fn across the m attributes under the context's worker
// budget (exec.ColScan kernel, work estimated as one unit per cell),
// handing each worker a private reusable tuple-id scratch slice. The
// first error (lowest attribute index wins) cancels the remainder.
func forAttrs(ctx context.Context, n, m int, fn func(w int, scratch *[]int32, attr int) error) error {
	plan := exec.Plan(ctx, exec.ColScan, m, n*m)
	scratch := make([][]int32, plan.Workers())
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
			if e := fn(w, &scratch[w], a); e != nil {
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

// expandRuns appends the tuple ids a run list covers, ascending.
func expandRuns(dst []int32, runs []relation.Run) []int32 {
	for _, r := range runs {
		for t := r.Start; t < r.Start+r.Len; t++ {
			dst = append(dst, t)
		}
	}
	return dst
}

// ObjectsOverClusters expresses values over a compressed tuple axis
// (double clustering): p(c_t|v) is the fraction of v's occurrences that
// fall in tuple cluster c_t.
func ObjectsOverClusters(r *relation.Relation, tupleCluster []int, k int) []limbo.Obj {
	st := r.Stats()
	d := r.D()
	m := r.M()
	objs := make([]limbo.Obj, d)
	for v := 0; v < d; v++ {
		counts := make([]int64, m)
		counts[r.ValueAttr(int32(v))] = int64(st.Count[v])
		mass := map[int32]float64{}
		dv := float64(st.Count[v])
		for _, t := range st.Tuples[v] {
			c := tupleCluster[t]
			if c >= 0 && c < k {
				mass[int32(c)] += 1.0 / dv
			}
		}
		es := make([]it.Entry, 0, len(mass))
		for idx, p := range mass {
			es = append(es, it.Entry{Idx: idx, P: p})
		}
		objs[v] = limbo.Obj{
			ID:     int32(v),
			W:      1.0 / float64(d),
			Cond:   it.NewVec(es),
			Counts: counts,
		}
	}
	return objs
}

// Group is one cluster of attribute values with its ADCF summary.
type Group struct {
	DCF *limbo.DCF
	// Values are the value ids associated with this summary by Phase 3.
	Values []int32
	// Duplicate marks membership in C_V^D: the group's values appear in
	// at least two tuples (or tuple clusters) AND in at least two
	// attributes.
	Duplicate bool
}

// Clustering is the outcome of attribute-value clustering.
type Clustering struct {
	Groups []Group
	// Assign[v] is the group index of value id v and the association loss.
	Assign    []limbo.Assignment
	LeafCount int
	Threshold float64
	// NumAttrs mirrors the relation arity (the width of matrix O rows).
	NumAttrs int
}

// ClusterCtx runs the Section 6.2 procedure on pre-built value objects:
// Phase 1 at φV with ADCFs, then Phase 3 association of every value with
// its closest summary. The duplicate flag is computed per summary from
// the merged ADCF. When the context carries a scheduler grant, the returned
// Clustering's DCFs live in pooled slabs and must not be retained past
// the grant's release (task runners copy what they keep).
func ClusterCtx(ctx context.Context, objs []limbo.Obj, phiV float64, b, numAttrs int) *Clustering {
	tree := limbo.BuildTreeCtx(ctx, objs, phiV, b)
	leaves := tree.Leaves()
	assign := limbo.AssignCtx(ctx, leaves, objs)

	c := &Clustering{
		Groups:    make([]Group, len(leaves)),
		Assign:    assign,
		LeafCount: tree.LeafCount(),
		Threshold: tree.Threshold(),
		NumAttrs:  numAttrs,
	}
	for i, d := range leaves {
		c.Groups[i] = Group{DCF: d, Duplicate: isDuplicate(d)}
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
func isDuplicate(d *limbo.DCF) bool {
	if d.SupportLen() < 2 {
		return false
	}
	attrs := 0
	for _, c := range d.Counts {
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

// Anomaly is a value whose association with its summary is unusually
// lossy — the §6.2 "values responsible for the errors in the tuple
// proximity" surfaced without knowing the injections.
type Anomaly struct {
	Value int32
	Group int
	Loss  float64
}

// Anomalies returns the topN values with the highest Phase 3 association
// loss (descending). Values that fit their summary exactly (loss 0) are
// never reported.
func (c *Clustering) Anomalies(topN int) []Anomaly {
	var out []Anomaly
	for v, a := range c.Assign {
		if a.Cluster >= 0 && a.Loss > 1e-12 {
			out = append(out, Anomaly{Value: int32(v), Group: a.Cluster, Loss: a.Loss})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Loss != out[j].Loss {
			return out[i].Loss > out[j].Loss
		}
		return out[i].Value < out[j].Value
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out
}

// MatrixF builds the paper's matrix F: one row per attribute of A^D
// (attributes supporting at least one duplicate group), one column per
// C_V^D group, entries from the merged O counts. It returns the rows and
// the attribute indices of A^D.
func (c *Clustering) MatrixF() (rows [][]int64, attrIdx []int) {
	dups := c.DuplicateGroups()
	if len(dups) == 0 {
		return nil, nil
	}
	m := c.NumAttrs
	full := make([][]int64, m)
	for a := 0; a < m; a++ {
		full[a] = make([]int64, len(dups))
	}
	for j, gi := range dups {
		for a, cnt := range c.Groups[gi].DCF.Counts {
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
