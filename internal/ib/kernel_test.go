package ib

import (
	"context"
	"testing"

	"structmine/internal/it"
)

// scatterDeltaI evaluates the engine's kernel over raw coordinates: n
// scattered into a table wide enough for both supports.
func scatterDeltaI(c, n *cluster) float64 {
	u := 0
	for _, idx := range [][]int32{c.idx, n.idx} {
		if len(idx) > 0 {
			u = max(u, int(idx[len(idx)-1])+1)
		}
	}
	tab := make([]slot, u)
	scatter(tab, n)
	return deltaI(c, n, tab)
}

// TestDeltaIZeroOnProportional: clusters whose sums are proportional bit
// for bit on one support have equal conditionals, and the kernel, the
// serial walk and both engines give δI exactly 0 — not the rounding
// residue of the sum, which would break ties among identical objects by
// float noise instead of by (a, b).
func TestDeltaIZeroOnProportional(t *testing.T) {
	cond := it.NewVec([]it.Entry{{Idx: 3, P: 0.1}, {Idx: 7, P: 0.2}, {Idx: 11, P: 0.7}})
	p := 1.0 / 3
	x := newCluster(Object{P: p, Cond: cond})
	y := newCluster(Object{P: p, Cond: cond})
	z := newCluster(Object{P: p, Cond: cond})
	double := newCluster(Object{P: 2 * p, Cond: cond})
	xy := mergeClusters(&x, &y)
	for _, c := range []struct {
		name         string
		older, newer *cluster
	}{
		{"bit-identical, equal masses", &x, &y},
		{"bit-identical, masses 1:2", &x, &double},
		{"merged pair against a third copy", &z, &xy},
	} {
		for _, got := range []float64{
			scatterDeltaI(c.older, c.newer), scatterDeltaI(c.newer, c.older),
			deltaIWalk(c.older, c.newer), deltaIWalk(c.newer, c.older),
		} {
			if got != 0 {
				t.Errorf("%s: δI = %g, want exactly 0", c.name, got)
			}
		}
	}

	// Through both engines: the three copies merge first, in (a, b)
	// order, each merge at exactly 0.
	objs := []Object{
		{Label: "x", P: 0.3, Cond: cond},
		{Label: "w", P: 0.1, Cond: it.Uniform([]int32{3, 9})},
		{Label: "y", P: 0.3, Cond: cond},
		{Label: "z", P: 0.3, Cond: cond},
	}
	want := []Merge{{Left: 0, Right: 2, Node: 4, Loss: 0, K: 3}, {Left: 3, Right: 4, Node: 5, Loss: 0, K: 2}}
	for _, res := range []*Result{AgglomerateKCtx(context.Background(), objs, 1), AgglomerateSerial(objs)} {
		if m := res.Merges[:2]; m[0] != want[0] || m[1] != want[1] {
			t.Errorf("first merges %+v, want %+v", m, want)
		}
	}
}
