// Package attrs implements attribute grouping (Section 6.3): attributes
// are expressed over the duplicate value groups C_V^D through matrix F,
// given uniform priors, and clustered agglomeratively with φA = 0 to a
// full dendrogram. The resulting merge sequence Q — each merge with its
// information loss — is the input to FD-RANK, and by Proposition 1 the
// earlier a set of attributes merges, the more duplication (and hence
// potential redundancy) it shares.
package attrs

import (
	"context"

	"structmine/internal/ib"
	"structmine/internal/it"
	"structmine/internal/relation"
	"structmine/internal/values"
)

// Grouping is a full agglomerative clustering of the A^D attributes.
type Grouping struct {
	// Res is the AIB result over the attribute objects (full merge
	// sequence — the paper's Q).
	Res *ib.Result
	// AttrIdx maps object index -> relation attribute index (A^D).
	AttrIdx []int
	// Names are the attribute names of the objects, for rendering.
	Names []string
}

// GroupCtx clusters the attributes of A^D using the duplicate value
// groups of an attribute-value clustering, under the context's worker
// budget.
func GroupCtx(ctx context.Context, r *relation.Relation, c *values.Clustering) *Grouping {
	rows, attrIdx := c.MatrixF()
	return groupFromF(ctx, rows, attrIdx, r.Attrs)
}

// GroupNamesCtx is GroupCtx for callers that only have attribute names
// (the paged task pipeline): grouping consumes nothing of the relation
// beyond its attribute names, so both paths share groupFromF.
func GroupNamesCtx(ctx context.Context, names []string, c *values.Clustering) *Grouping {
	rows, attrIdx := c.MatrixF()
	return groupFromF(ctx, rows, attrIdx, names)
}

// GroupFromMatrix clusters attributes from an explicit F matrix (used by
// tests and by the worked-example demo); rows[i] corresponds to
// attribute attrIdx[i] with the given names.
func GroupFromMatrix(rows [][]int64, attrIdx []int, names []string) *Grouping {
	return groupFromF(context.Background(), rows, attrIdx, names)
}

func groupFromF(ctx context.Context, rows [][]int64, attrIdx []int, names []string) *Grouping {
	g := &Grouping{AttrIdx: attrIdx}
	if len(rows) == 0 {
		g.Res = ib.AgglomerateKCtx(ctx, nil, 1)
		return g
	}
	objs := make([]ib.Object, len(rows))
	prior := 1.0 / float64(len(rows))
	for i, row := range rows {
		total := int64(0)
		for _, v := range row {
			total += v
		}
		es := make([]it.Entry, 0, len(row))
		for j, v := range row {
			if v > 0 && total > 0 {
				es = append(es, it.Entry{Idx: int32(j), P: float64(v) / float64(total)})
			}
		}
		name := ""
		if attrIdx[i] < len(names) {
			name = names[attrIdx[i]]
		}
		objs[i] = ib.Object{Label: name, P: prior, Cond: it.NewVec(es)}
		g.Names = append(g.Names, name)
	}
	g.Res = ib.AgglomerateKCtx(ctx, objs, 1)
	return g
}

// MaxLoss returns max(Q), the largest merge loss.
func (g *Grouping) MaxLoss() float64 { return g.Res.MaxLoss() }

// MergeLossOf returns the information loss of the first merge in Q at
// which all the given relation-attribute indices lie in one cluster, and
// whether such a merge exists (it does not when some attribute is
// outside A^D, or when the sequence is partial).
func (g *Grouping) MergeLossOf(attrIndices []int) (float64, bool) {
	want := map[int]bool{}
	for _, a := range attrIndices {
		obj := -1
		for i, ai := range g.AttrIdx {
			if ai == a {
				obj = i
				break
			}
		}
		if obj < 0 {
			return 0, false
		}
		want[obj] = true
	}
	if len(want) <= 1 {
		// A single attribute is "together" from the start at zero loss.
		return 0, true
	}
	for _, m := range g.Res.Merges {
		members := g.Res.Members(m.Node)
		have := 0
		for _, obj := range members {
			if want[obj] {
				have++
			}
		}
		if have == len(want) {
			return m.Loss, true
		}
	}
	return 0, false
}

// Dendrogram returns the printable dendrogram of the grouping.
func (g *Grouping) Dendrogram() *ib.Dendrogram { return g.Res.Dendrogram() }
