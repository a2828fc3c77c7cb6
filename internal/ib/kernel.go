package ib

import (
	"slices"

	"structmine/internal/it"
)

// cluster is the engine's working summary of a dendrogram node in
// weighted-sum form: its mass p = p(c) and, over its support in
// ascending coordinate order, the sums s = p·p(t|c). plog and slog cache
// x·log₂x of p and of every s, so equation (3) reduces to
//
//	δI(c1, c2) = xlog(p1+p2) − plog1 − plog2
//	             − Σ_{t ∈ supp1 ∩ supp2} [xlog(s1+s2) − slog1 − slog2]
//
// (xlog = it.XLog2): coordinates only one cluster holds cancel exactly,
// and only coordinates both share take a logarithm.
type cluster struct {
	p, plog float64
	idx     []int32
	s, slog []float64
}

// newCluster converts an object to weighted-sum form. Coordinates whose
// sum is not positive are dropped; their terms vanish identically.
func newCluster(o Object) cluster {
	c := cluster{p: o.P, plog: it.XLog2(o.P),
		idx:  make([]int32, 0, len(o.Cond)),
		s:    make([]float64, 0, len(o.Cond)),
		slog: make([]float64, 0, len(o.Cond))}
	for _, e := range o.Cond {
		if s := o.P * e.P; s > 0 {
			c.idx = append(c.idx, e.Idx)
			c.s = append(c.s, s)
			c.slog = append(c.slog, it.XLog2(s))
		}
	}
	return c
}

// mergeClusters returns the merge of a and b (equations 1 and 2 in
// weighted-sum form: masses and sums simply add) by a two-pointer walk;
// x·log₂x is recomputed only where both had mass.
func mergeClusters(a, b *cluster) cluster {
	n := len(a.idx) + len(b.idx)
	m := cluster{p: a.p + b.p,
		idx:  make([]int32, 0, n),
		s:    make([]float64, 0, n),
		slog: make([]float64, 0, n)}
	m.plog = it.XLog2(m.p)
	i, j := 0, 0
	for i < len(a.idx) && j < len(b.idx) {
		switch {
		case a.idx[i] < b.idx[j]:
			m.idx, m.s, m.slog = append(m.idx, a.idx[i]), append(m.s, a.s[i]), append(m.slog, a.slog[i])
			i++
		case a.idx[i] > b.idx[j]:
			m.idx, m.s, m.slog = append(m.idx, b.idx[j]), append(m.s, b.s[j]), append(m.slog, b.slog[j])
			j++
		default:
			s := a.s[i] + b.s[j]
			m.idx, m.s, m.slog = append(m.idx, a.idx[i]), append(m.s, s), append(m.slog, it.XLog2(s))
			i++
			j++
		}
	}
	m.idx, m.s, m.slog = append(m.idx, a.idx[i:]...), append(m.s, a.s[i:]...), append(m.slog, a.slog[i:]...)
	m.idx, m.s, m.slog = append(m.idx, b.idx[j:]...), append(m.s, b.s[j:]...), append(m.slog, b.slog[j:]...)
	return m
}

// remap rewrites every cluster's coordinates to their rank among the
// distinct coordinates of all clusters — order-preserving, so supports
// stay ascending and every δI sums the same terms in the same order —
// and returns their number U, the size of a dense scatter table.
func remap(cs []cluster) int {
	n := 0
	for i := range cs {
		n += len(cs[i].idx)
	}
	all := make([]int32, 0, n)
	for i := range cs {
		all = append(all, cs[i].idx...)
	}
	slices.Sort(all)
	all = slices.Compact(all)
	for i := range cs {
		pos := 0
		for k, ix := range cs[i].idx {
			pos, _ = it.Gallop(all, pos, ix)
			cs[i].idx[k] = int32(pos)
		}
	}
	return len(all)
}

// slot is one coordinate of a dense scatter table: the scattered
// cluster's sum there (0 where it has none) and its x·log₂x.
type slot struct{ s, slog float64 }

// scatter writes n's support into tab; unscatter zeroes it again, so a
// table is all-zero between uses.
func scatter(tab []slot, n *cluster) {
	for k, ix := range n.idx {
		tab[ix] = slot{n.s[k], n.slog[k]}
	}
}

func unscatter(tab []slot, n *cluster) {
	for _, ix := range n.idx {
		tab[ix] = slot{}
	}
}

// deltaI returns δI(c, n) of an older cluster c and a newer cluster n
// scattered into tab: c walks its own support with one table probe per
// coordinate — O(|c|), no searches — accumulating the shared terms in
// c's ascending coordinate order. deltaIWalk (serial.go) is the same
// arithmetic by a two-pointer walk.
func deltaI(c, n *cluster, tab []slot) float64 {
	res := it.XLog2(c.p+n.p) - c.plog - n.plog
	shared, prop := 0, true
	for k, ix := range c.idx {
		t := tab[ix]
		if t.s == 0 {
			continue
		}
		s1 := c.s[k]
		res -= it.XLog2(s1+t.s) - c.slog[k] - t.slog
		shared++
		prop = prop && s1*n.p == t.s*c.p
	}
	return settle(res, c, n, shared, prop)
}

// settle finishes a δI accumulation. shared counts the coordinates both
// operands hold, and prop says whether s1·p2 == s2·p1 held bit for bit
// at each of them. When the supports coincide and are proportional, the
// conditionals are equal and δI is exactly 0 — not the rounding residue
// of the sum — so ties among identical objects break by (a, b) alone.
// Negative rounding noise is clamped to 0.
func settle(res float64, c, n *cluster, shared int, prop bool) float64 {
	if res < 0 || prop && shared == len(c.idx) && shared == len(n.idx) {
		return 0
	}
	return res
}
