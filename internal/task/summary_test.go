package task

import (
	"context"
	"math"
	"testing"

	"structmine/internal/relation"
	"structmine/internal/tuples"
)

// TestSummaryThresholdOracle is the paper's τ = φT·I(V;T)/n (Section 5.2)
// with I(V;T) from the describe route — the mean of the attributes'
// value-index entropies — which shares nothing with the per-object
// joint distribution limbo.MutualInfo sums for the tree.
func TestSummaryThresholdOracle(t *testing.T) {
	for _, src := range diffSources(t) {
		c := relation.AsColumns(src.relation(t, src.rows))
		desc, err := DescribeColumns(c)
		if err != nil {
			t.Fatal(err)
		}
		objs, err := tuples.ObjectsColumnsCtx(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		for _, phiT := range []float64{0, 0.1, 0.3, 1} {
			sum := tuples.Summarize(context.Background(), objs, phiT, defaultB)
			want := phiT * desc.TupleInfoBits / float64(c.N())
			if math.Abs(sum.Threshold-want) > 1e-12 {
				t.Errorf("%s, φT=%v: τ = %v, φT·I(V;T)/n = %v (I = %v bits, n = %d)",
					src.name, phiT, sum.Threshold, want, desc.TupleInfoBits, c.N())
			}
			if phiT > 0 && sum.Threshold <= 0 {
				t.Errorf("%s, φT=%v: τ = %v", src.name, phiT, sum.Threshold)
			}
		}
	}
}

// valueTupleInfo is I(V;T) in bits over the value objects of equations
// 6 and 7 — p(v) = 1/d, p(t|v) = 1/n_v for the n_v tuples holding v —
// counted from c's rows: H(T|V) = (1/d)·Σ_v log2 n_v, and
// p(t) = (1/d)·Σ_{v ∈ t} 1/n_v gives H(T). It shares no code with
// limbo.MutualInfo's per-object joint.
func valueTupleInfo(t *testing.T, c relation.Columns) float64 {
	t.Helper()
	all := relation.AllAttrs(c)
	nv := map[int32]int{}
	if err := relation.ForEachRow(c, all, func(_ int, row []int32) bool {
		for _, v := range row {
			nv[v]++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	d := float64(len(nv))
	hTV, hT := 0.0, 0.0
	for _, n := range nv {
		hTV += math.Log2(float64(n)) / d
	}
	if err := relation.ForEachRow(c, all, func(_ int, row []int32) bool {
		pt := 0.0
		for _, v := range row {
			pt += 1 / (d * float64(nv[v]))
		}
		hT -= pt * math.Log2(pt)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return hT - hTV
}

// TestValuesThresholdOracle is τ on the value axis: the values artifact's
// threshold is φV·I(V;T)/|V| (Section 6.2) with |V| = D, the relation's
// distinct values, and I(V;T) over the value objects single-clustered
// value clustering builds its tree from (valueTupleInfo). That I is not
// the tuple axis' I(T;V) describe reports: the value prior is uniform,
// p(v) = 1/d, not n_v/(n·m).
func TestValuesThresholdOracle(t *testing.T) {
	for _, r := range oracleSources(t) {
		c := relation.AsColumns(r)
		info := valueTupleInfo(t, c)
		for _, phiV := range []float64{0, 0.1, 0.3, 1} {
			res, err := RunColumns(context.Background(), c, "values", Params{PhiV: F(phiV)})
			if err != nil {
				t.Fatal(err)
			}
			got := res.(*ValuesResult).Threshold
			want := phiV * info / float64(c.D())
			if math.Abs(got-want) > 1e-9*want || (phiV > 0 && got <= 0) {
				t.Errorf("%s, φV=%v: τ = %v, φV·I(V;T)/|V| = %v (I = %v bits, |V| = %d)",
					r.Name, phiV, got, want, info, c.D())
			}
		}
	}
}
