package task

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"structmine/internal/obs"
	"structmine/internal/relation"
	"structmine/internal/tuples"
)

// TestTupleSummaryKey is the key trap: the summary's kind is no task, and
// a name without a Normalize case has every knob cleared — which would
// file the φT = 0.3 summary under φT = 0. The kind keeps its φT (and
// nothing else), and a summary saved for one φT is refused for the other
// even when a store hands it over under the wrong key.
func TestTupleSummaryKey(t *testing.T) {
	k0 := Params{PhiT: F(0)}.CacheKey(KindTupleSummary)
	k3 := Params{PhiT: F(0.3)}.CacheKey(KindTupleSummary)
	if k0 == k3 {
		t.Fatalf("φT 0 and 0.3 share the key %q", k0)
	}
	if unset := (Params{}).CacheKey(KindTupleSummary); unset != k0 {
		t.Fatalf("unset φT keys %q, explicit 0 keys %q", unset, k0)
	}
	noise := Params{PhiT: F(0.3), PhiV: F(0.7), Psi: F(0.1), K: 3, Double: true}
	if got := noise.CacheKey(KindTupleSummary); got != k3 {
		t.Fatalf("knobs the summary does not depend on reached its key: %q", got)
	}
	if _, ok := Lookup(KindTupleSummary); ok {
		t.Fatalf("%q is a cache kind, not a task", KindTupleSummary)
	}
	if _, err := Run(context.Background(), db2(t), KindTupleSummary, Params{}); err == nil {
		t.Fatalf("%q ran as a task", KindTupleSummary)
	}

	// One slot whatever the key: the φT = 0 summary is all it holds.
	src := diffSources(t)[0]
	c := relation.AsColumns(src.relation(t, src.rows[:120]))
	blind := blindIntermediates{}
	ctx := WithIntermediates(context.Background(), blind)
	if _, err := RunColumns(ctx, c, "dedup", Params{PhiT: F(0)}); err != nil {
		t.Fatal(err)
	}
	before := summaryCounts()
	got, err := RunColumns(ctx, c, "dedup", Params{PhiT: F(0.3)})
	if err != nil {
		t.Fatal(err)
	}
	after := summaryCounts()
	if after[obs.SummaryRejected] != before[obs.SummaryRejected]+1 || after[obs.SummaryReused] != before[obs.SummaryReused] {
		t.Fatalf("the φT = 0 summary was not refused at φT = 0.3: %v → %v", before, after)
	}
	want, err := RunColumns(context.Background(), c, "dedup", Params{PhiT: F(0.3)})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); string(g) != string(w) {
		t.Fatalf("dedup at φT = 0.3 over a φT = 0 summary:\n got %s\nwant %s", g, w)
	}
}

// blindIntermediates ignores kind and parameters: the worst store a
// runner could be handed.
type blindIntermediates map[string][]byte

func (b blindIntermediates) LoadIntermediate(string, Params) ([]byte, bool) {
	data, ok := b[""]
	return data, ok
}

func (b blindIntermediates) SaveIntermediate(_ string, _ Params, data []byte) { b[""] = data }

// TestSummaryThresholdOracle is the paper's τ = φT·I(V;T)/n (Section 5.2)
// with I(V;T) from the describe route — per-attribute value-index
// marginals, H(V) − log2 m — which shares nothing with the per-object
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
			sum := tuples.Summarize(context.Background(), objs, c.M(), phiT, defaultB)
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

// TestTupleSummaryVersionOneRebuilt: a version-1 summary (tree-ordered
// leaves at φT = 0) that a daemon restarted on an old -persist directory
// hands back through the intermediates hook is refused, counted
// rejected, and rebuilt — the job's artifact is the fresh run's, and the
// hook then holds a summary this build reads.
func TestTupleSummaryVersionOneRebuilt(t *testing.T) {
	src := diffSources(t)[0]
	c := relation.AsColumns(src.relation(t, src.rows[:120]))
	objs, err := tuples.ObjectsColumnsCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	enc := tuples.EncodeSummary(tuples.Summarize(context.Background(), objs, c.M(), 0, defaultB))
	old := append([]byte(nil), enc[:len(enc)-4]...)
	binary.LittleEndian.PutUint16(old[4:6], 1)
	old = binary.LittleEndian.AppendUint32(old, crc32.ChecksumIEEE(old))

	held := blindIntermediates{"": old}
	before := summaryCounts()
	got, err := RunColumns(WithIntermediates(context.Background(), held), c, "dedup", Params{})
	if err != nil {
		t.Fatal(err)
	}
	after := summaryCounts()
	if after[obs.SummaryRejected] != before[obs.SummaryRejected]+1 || after[obs.SummaryBuilt] != before[obs.SummaryBuilt]+1 ||
		after[obs.SummaryReused] != before[obs.SummaryReused] {
		t.Fatalf("a version-1 summary was not rejected and rebuilt: %v → %v", before, after)
	}
	want, err := RunColumns(context.Background(), c, "dedup", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); string(g) != string(w) {
		t.Fatalf("dedup over a version-1 summary:\n got %s\nwant %s", g, w)
	}
	if _, err := tuples.DecodeSummary(held[""]); err != nil {
		t.Fatalf("the rebuilt summary left in the hook does not decode: %v", err)
	}
}
