package task

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"structmine/internal/datagen"
	"structmine/internal/decompose"
	"structmine/internal/exec"
	"structmine/internal/fd"
	"structmine/internal/ib"
	"structmine/internal/it"
	"structmine/internal/limbo"
	"structmine/internal/measures"
	"structmine/internal/relation"
	"structmine/internal/tuples"
)

// oracleSources are the paper-oracle inputs: the DB2 sample join and a
// 2 000 × 13 DBLP instance.
func oracleSources(t *testing.T) []*relation.Relation {
	dblp := datagen.NewDBLP(datagen.DBLPConfig{Tuples: 2000, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28})
	return []*relation.Relation{cleanDB2(t), dblp}
}

// tupleValueInfo is I(C;V) in bits for the clustering of a relation's
// tuples that cluster names (cluster[t] for tuple t, rows[t] its value
// ids). A tuple has mass 1/n spread evenly over its m values
// (equations 4 and 5), so p(c, v) is the share of the n·m cells (t, a)
// with t in c and value v: I is counted from the rows, sharing no code
// with the DCF arithmetic the engines run on.
func tupleValueInfo(rows [][]int32, cluster []int) float64 {
	perCluster, perValue, joint := map[int]int{}, map[int32]int{}, map[[2]int]int{}
	for t, row := range rows {
		for _, v := range row {
			perCluster[cluster[t]]++
			perValue[v]++
			joint[[2]int{cluster[t], int(v)}]++
		}
	}
	return entropyOf(countsOf(perCluster)) + entropyOf(countsOf(perValue)) - entropyOf(countsOf(joint))
}

// entropyOf is H in bits of the classes of the given sizes, counted
// here as (F(n) − Σ F(c))/n with F(k) = k·log₂k and n = Σ c, the sizes
// added in ascending order: the canonical order it.NH sums in, so a
// recount of a measure matches the engines' value bit for bit. It sorts
// counts in place.
func entropyOf(counts []int) float64 {
	slices.Sort(counts)
	n, s := 0, 0.0
	for _, c := range counts {
		n += c
		s += it.XLog2(float64(c))
	}
	if n == 0 {
		return 0
	}
	return (it.XLog2(float64(n)) - s) / float64(n)
}

func countsOf[K comparable](m map[K]int) []int {
	out := make([]int, 0, len(m))
	for _, n := range m {
		out = append(out, n)
	}
	return out
}

// checkLossAccounting replays res's merges over its q objects — object
// i holds the tuples t with objectOf[t] = i — and asserts, at every
// merge for up to 64 k and at the last, that the losses added up since
// k₀ = q equal I(C_k₀;V) − I(C_k;V), both sides counted by
// tupleValueInfo, to 1e-9 relative to I(C_k₀;V).
func checkLossAccounting(t *testing.T, where string, rows [][]int32, objectOf []int, res *ib.Result) {
	t.Helper()
	q := res.NumObjects()
	parent := make([]int, q+len(res.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	cluster := make([]int, len(rows))
	info := func() float64 {
		for tu, o := range objectOf {
			cluster[tu] = find(o)
		}
		return tupleValueInfo(rows, cluster)
	}
	i0 := info()
	if i0 <= 0 {
		t.Fatalf("%s: I(C_k0;V) = %g", where, i0)
	}
	every := max(1, len(res.Merges)/64)
	lost := 0.0
	for j, m := range res.Merges {
		parent[m.Left], parent[m.Right] = m.Node, m.Node
		lost += m.Loss
		if j%every != 0 && j != len(res.Merges)-1 {
			continue
		}
		if want := i0 - info(); math.Abs(lost-want) > 1e-9*i0 {
			t.Fatalf("%s: k=%d: merge losses add up to %.15g, I(C_k0;V) − I(C_k;V) = %.15g", where, m.K, lost, want)
		}
	}
}

// TestAIBLossAccounting is the information-bottleneck oracle: every δI
// an agglomeration records is exactly the information its merge gives
// up, so the losses from k₀ down to any k telescope to
// I(C_k₀;V) − I(C_k;V). It holds for ib.AgglomerateKCtx over the tuples
// themselves (k₀ = n) and for LIMBO Phase 2 over the leaf DCFs of a
// Phase 1 pass (k₀ = the leaf count), on DB2 and DBLP 2 000 × 13, at one
// worker and at four.
func TestAIBLossAccounting(t *testing.T) {
	for _, r := range oracleSources(t) {
		rows := make([][]int32, r.N())
		for tu := range rows {
			rows[tu] = r.Row(tu)
		}
		objs, err := tuples.ObjectsColumnsCtx(context.Background(), relation.AsColumns(r))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			ctx := exec.WithWorkers(context.Background(), workers)
			where := fmt.Sprintf("%s/%dw", r.Name, workers)

			points := make([]ib.Object, len(objs))
			self := make([]int, len(objs))
			for i, o := range objs {
				points[i], self[i] = ib.Object{P: o.W, Cond: o.Cond}, i
			}
			checkLossAccounting(t, where+"/aib", rows, self, ib.AgglomerateKCtx(ctx, points, 1))

			sum := tuples.Summarize(ctx, objs, 0.3, defaultB)
			leaves := make([]*limbo.DCF, sum.LeafCount)
			leafOf := make([]int, len(objs))
			for tu, l := range sum.LeafOf {
				if leafOf[tu] = int(l); leaves[l] == nil {
					leaves[l] = limbo.NewDCF(objs[tu])
				} else {
					leaves[l].AbsorbObj(objs[tu])
				}
			}
			if sum.LeafCount >= len(objs) {
				t.Fatalf("%s: Phase 1 at φT = 0.3 left %d leaves for %d tuples", where, sum.LeafCount, len(objs))
			}
			checkLossAccounting(t, where+"/limbo-phase2", rows, leafOf, limbo.Phase2Ctx(ctx, leaves, 1))
		}
	}
}

// TestDecomposeRecount is the oracle for every decompose artifact: the
// decomposition on the artifact's FD is materialised with decompose.OnSets
// and its sizes recounted from S1 and S2 — S1 the distinct X∪Y rows, S2
// one row per tuple over R−Y, R = S2 ⋈ S1 — and RAD / RTR recounted from
// the rows of X∪Y (recount). Every field must
// equal the artifact's, at three ψ, on DB2 and DBLP 2 000 × 13, over the
// resident relation and a 32-row-page colstore table.
func TestDecomposeRecount(t *testing.T) {
	for _, r := range oracleSources(t) {
		for _, src := range []struct {
			name string
			c    relation.Columns
		}{{"resident", relation.AsColumns(r)}, {"colstore", tableOf(t, r)}} {
			names := src.c.AttrNames()
			for _, psi := range []float64{0, 0.5, 0.9} {
				where := fmt.Sprintf("%s/%s/psi=%g", r.Name, src.name, psi)
				out, err := RunColumns(context.Background(), src.c, "decompose", Params{Psi: F(psi)})
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				art := out.(*DecomposeResult)
				lhs, rhs := parseFD(t, names, art.FD.Label)
				f := fd.FD{LHS: fd.NewAttrSet(lhs...), RHS: fd.NewAttrSet(rhs...)}
				res, err := decompose.OnSets(fd.NewSets(context.Background(), src.c), f)
				if err != nil {
					t.Fatalf("%s: %s: %v", where, art.FD.Label, err)
				}
				if err := res.Lossless(src.c, f); err != nil {
					t.Fatalf("%s: %s: %v", where, art.FD.Label, err)
				}
				xy := f.Attrs().Attrs()
				distinct := projectionCounts(t, src.c, xy)
				if res.S1.N() != len(distinct) || res.S1.M() != len(xy) || res.S2.N() != src.c.N() || res.S2.M() != src.c.M()-len(rhs) {
					t.Fatalf("%s: S1 %d×%d, S2 %d×%d; want %d×%d and %d×%d", where, res.S1.N(), res.S1.M(), res.S2.N(), res.S2.M(),
						len(distinct), len(xy), src.c.N(), src.c.M()-len(rhs))
				}
				before, after := src.c.N()*src.c.M(), res.S1.N()*res.S1.M()+res.S2.N()*res.S2.M()
				ms := recount(t, src.c, xy)
				want := DecomposeResult{
					FD: art.FD, Rank: art.Rank,
					S1:          RelationSummary{Name: res.S1.Name, Attrs: res.S1.Attrs, Tuples: res.S1.N()},
					S2:          RelationSummary{Name: res.S2.Name, Attrs: res.S2.Attrs, Tuples: res.S2.N()},
					CellsBefore: before, CellsAfter: after, Reduction: 1 - float64(after)/float64(before),
					RAD: ms.RAD, RTR: ms.RTR,
				}
				if got, want := fmt.Sprintf("%+v", *art), fmt.Sprintf("%+v", want); got != want {
					t.Errorf("%s: artifact\n %s\nrecounted\n %s", where, got, want)
				}
			}
		}
	}
}

// projectionCounts is the multiplicity of each distinct row of c's
// projection on attrs, in no particular order: a map over relation.ForEachRow
// keyed by the rendered row, sharing no code with
// relation.ProjectionCountsColumns.
func projectionCounts(t *testing.T, c relation.Columns, attrs []int) []int {
	t.Helper()
	rows := map[string]int{}
	if err := relation.ForEachRow(c, attrs, func(_ int, row []int32) bool {
		rows[fmt.Sprint(row)]++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return countsOf(rows)
}

// recount is the paper's duplication measures of attrs on c (Section 8)
// over projectionCounts: RAD = 1 − H/log2 n, RADw = 1 − (H·|attrs|/m)/log2 n
// and RTR = 1 − n'/n, for n ≥ 2 and a non-empty set.
func recount(t *testing.T, c relation.Columns, attrs []int) measures.Measures {
	t.Helper()
	counts := projectionCounts(t, c, attrs)
	h, logN := entropyOf(counts), math.Log2(float64(c.N()))
	return measures.Measures{
		RAD:  1 - h/logN,
		RADw: 1 - h*float64(len(attrs))/float64(c.M())/logN,
		RTR:  1 - float64(len(counts))/float64(c.N()),
	}
}

// TestMeasuresRecount is the oracle for the duplication measures: on DB2
// and DBLP 2 000 × 13, over the resident relation and a 32-row-page
// colstore table, measures.OfSets equals recount bit for bit on every single
// attribute, every pair of neighbouring attributes, the attribute set of
// every dependency rank-fds ranks, and the full attribute set. The empty
// set, and every set of a relation of no tuple or one tuple, measure 0.
func TestMeasuresRecount(t *testing.T) {
	for _, r := range oracleSources(t) {
		for _, src := range []struct {
			name string
			c    relation.Columns
		}{{"resident", relation.AsColumns(r)}, {"colstore", tableOf(t, r)}} {
			c, m := src.c, src.c.M()
			sets := [][]int{relation.AllAttrs(c)}
			for a := 0; a < m; a++ {
				sets = append(sets, []int{a}, []int{a, (a + 1) % m})
			}
			ranked, err := RunColumns(context.Background(), c, "rank-fds", Params{})
			if err != nil {
				t.Fatal(err)
			}
			names := c.AttrNames()
			for _, rf := range ranked.(*RankFDsResult).Ranked {
				lhs, rhs := parseFD(t, names, rf.FD.Label)
				sets = append(sets, fd.NewAttrSet(append(lhs, rhs...)...).Attrs())
			}
			for _, attrs := range sets {
				got, err := measures.OfSets(fd.NewSets(context.Background(), c), attrs)
				if err != nil {
					t.Fatal(err)
				}
				if want := recount(t, c, attrs); got != want {
					t.Errorf("%s/%s %v: measures.OfSets %+v, recounted %+v", r.Name, src.name, attrs, got, want)
				}
			}
			if got, err := measures.OfSets(fd.NewSets(context.Background(), c), nil); err != nil || got != (measures.Measures{}) {
				t.Errorf("%s/%s: the empty set measures %+v (%v)", r.Name, src.name, got, err)
			}
		}
		for n := 0; n <= 1; n++ {
			small := r.Select(make([]int, n))
			for _, c := range []relation.Columns{relation.AsColumns(small), tableOf(t, small)} {
				for _, attrs := range [][]int{nil, {0}, relation.AllAttrs(c)} {
					if got, err := measures.OfSets(fd.NewSets(context.Background(), c), attrs); err != nil || got != (measures.Measures{}) {
						t.Errorf("%s, n = %d, %v: measures %+v (%v)", r.Name, n, attrs, got, err)
					}
				}
			}
		}
	}
}

// TestReportProfilesMatchOfSets: the report reads each attribute's RAD
// and RTR off its marginal, not a partition. On DB2 and DBLP
// 2 000 × 13, their one-tuple selections included, over the resident
// relation and a 32-row-page colstore table, they equal measures.OfSets
// on that attribute bit for bit.
func TestReportProfilesMatchOfSets(t *testing.T) {
	for _, r := range oracleSources(t) {
		for _, rel := range []*relation.Relation{r, r.Select([]int{0})} {
			for _, src := range []struct {
				name string
				c    relation.Columns
			}{{"resident", relation.AsColumns(rel)}, {"colstore", tableOf(t, rel)}} {
				out, err := RunColumns(context.Background(), src.c, "report", Params{})
				if err != nil {
					t.Fatal(err)
				}
				s := fd.NewSets(context.Background(), src.c)
				for a, prof := range out.(*ReportResult).Attrs {
					ms, err := measures.OfSets(s, []int{a})
					if err != nil {
						t.Fatal(err)
					}
					if prof.RAD != ms.RAD || prof.RTR != ms.RTR {
						t.Errorf("%s (n = %d)/%s %s: RAD %v, RTR %v; measures.OfSets %+v", r.Name, rel.N(), src.name, prof.Name, prof.RAD, prof.RTR, ms)
					}
				}
			}
		}
	}
}

// TestDescribeRowOrderInvariant: describe's artifact does not depend on
// the order of the rows. On DB2 and DBLP 2 000 and 20 000 × 13, over the
// resident relation and a 32-row-page colstore table, the rows reversed
// and in three seeded shuffles describe to the bytes of the rows in
// order.
func TestDescribeRowOrderInvariant(t *testing.T) {
	dblp := func(n int) *relation.Relation {
		return datagen.NewDBLP(datagen.DBLPConfig{Tuples: n, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28})
	}
	for _, r := range []*relation.Relation{cleanDB2(t), dblp(2000), dblp(20000)} {
		n := r.N()
		inOrder, reversed := make([]int, n), make([]int, n)
		for i := range n {
			inOrder[i], reversed[i] = i, n-1-i
		}
		orders := map[string][]int{"in order": inOrder, "reversed": reversed}
		rng := rand.New(rand.NewSource(12))
		for i := range 3 {
			orders[fmt.Sprintf("shuffle %d", i)] = rng.Perm(n)
		}
		var want []byte
		for _, name := range []string{"in order", "reversed", "shuffle 0", "shuffle 1", "shuffle 2"} {
			rel := r.Select(orders[name])
			for _, src := range []struct {
				name string
				c    relation.Columns
			}{{"resident", relation.AsColumns(rel)}, {"colstore", tableOf(t, rel)}} {
				res, err := DescribeColumns(src.c)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Errorf("%s %s/%s describes to\n %s\nthe rows in order to\n %s", r.Name, name, src.name, got, want)
				}
			}
		}
	}
}
