package fd

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"structmine/internal/colstore"
	"structmine/internal/datagen"
	"structmine/internal/exec"
	"structmine/internal/it"
	"structmine/internal/limbo"
	"structmine/internal/relation"
	"structmine/internal/store"
)

// setsOf is a standalone kernel over a resident relation.
func setsOf(r *relation.Relation) *Sets { return NewSets(context.Background(), relation.AsColumns(r)) }

// rendered is an instance's rows as quoted value strings, read back
// through Columns: the recount below shares no code with the
// partitions, the value ids or the value index.
type rendered [][]string

func renderRows(t testing.TB, c relation.Columns) rendered {
	t.Helper()
	strs, err := c.ValueStrings()
	if err != nil {
		t.Fatal(err)
	}
	var rs rendered
	if err := relation.ForEachRow(c, relation.AllAttrs(c), func(_ int, row []int32) bool {
		cells := make([]string, len(row))
		for a, v := range row {
			cells[a] = strconv.Quote(strs[v])
		}
		rs = append(rs, cells)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rs
}

// rows renders each tuple's row on attrs: the keys the recount groups by.
func (rs rendered) rows(attrs []int) []string {
	out := make([]string, len(rs))
	parts := make([]string, len(attrs))
	for t, cells := range rs {
		for i, a := range attrs {
			parts[i] = cells[a]
		}
		out[t] = strings.Join(parts, ",")
	}
	return out
}

// groupsOf is the group-by by hand: each distinct row's first tuple, in
// tuple order, and its multiplicity.
func groupsOf(rows []string) (first, count []int) {
	at := map[string]int{}
	for t, k := range rows {
		i, ok := at[k]
		if !ok {
			i = len(first)
			at[k] = i
			first, count = append(first, t), append(count, 0)
		}
		count[i]++
	}
	return first, count
}

// fdOf is X → Y by hand, from the x and y rows of every tuple: whether
// it holds — no x row meets two y rows — and its g3, 1 − keep/n with
// keep the tuples of the most frequent y row of each x row.
func fdOf(xs, ys []string) (holds bool, g3 float64) {
	within := map[string]map[string]int{}
	for t, kx := range xs {
		if within[kx] == nil {
			within[kx] = map[string]int{}
		}
		within[kx][ys[t]]++
	}
	holds, keep := true, 0
	for _, g := range within {
		best := 0
		for _, k := range g {
			best = max(best, k)
		}
		holds, keep = holds && len(g) == 1, keep+best
	}
	if len(xs) == 0 {
		return true, 0
	}
	return holds, 1 - float64(keep)/float64(len(xs))
}

// mvdOf is X ↠ Y | Z by hand: in every x row's group, the distinct yz
// rows are every pairing of its distinct y and z rows.
func mvdOf(xs, ys, zs []string) bool {
	type group struct{ ys, zs, yz map[string]bool }
	groups := map[string]*group{}
	for t, kx := range xs {
		g := groups[kx]
		if g == nil {
			g = &group{map[string]bool{}, map[string]bool{}, map[string]bool{}}
			groups[kx] = g
		}
		g.ys[ys[t]], g.zs[zs[t]], g.yz[ys[t]+"|"+zs[t]] = true, true, true
	}
	for _, g := range groups {
		if len(g.yz) != len(g.ys)*len(g.zs) {
			return false
		}
	}
	return true
}

// distinctOf is the number of distinct rows of r's projection on attrs.
func distinctOf(t testing.TB, r *relation.Relation, attrs []int) int {
	first, _ := groupsOf(renderRows(t, relation.AsColumns(r)).rows(attrs))
	return len(first)
}

// checkGroupBy holds the kernel on c to the recount of its rendered
// rows, for every X in sets: GroupBy's representatives and counts tuple
// for tuple (the counts sum to n, the groups number at most n); X → Y
// and g3(X → Y), bit for bit, for Y every single attribute and Y = R;
// and X ↠ Y for Y every single attribute and every neighbouring pair.
func checkGroupBy(t *testing.T, where string, c relation.Columns, sets [][]int) {
	t.Helper()
	rs := renderRows(t, c)
	n, m := c.N(), c.M()
	s := NewSets(context.Background(), c) // one kernel answers every question, as in a job
	ys := [][]int{relation.AllAttrs(c)}
	for a := 0; a < m; a++ {
		ys = append(ys, []int{a})
	}
	yRows := make([][]string, len(ys))
	for i, y := range ys {
		yRows[i] = rs.rows(y)
	}
	for _, x := range sets {
		xRows := rs.rows(x)
		first, count, err := s.GroupBy(x)
		if err != nil {
			t.Fatalf("%s %v: %v", where, x, err)
		}
		wantFirst, wantCount := groupsOf(xRows)
		if !slices.Equal(first, wantFirst) || !slices.Equal(count, wantCount) {
			t.Fatalf("%s %v: GroupBy %v × %v, recount %v × %v", where, x, first, count, wantFirst, wantCount)
		}
		sum := 0
		for _, k := range count {
			sum += k
		}
		if sum != n || len(first) > n {
			t.Fatalf("%s %v: %d groups of %d tuples over n = %d", where, x, len(first), sum, n)
		}
		lhs := NewAttrSet(x...)
		for i, y := range ys {
			f := FD{LHS: lhs, RHS: NewAttrSet(y...)}
			holds, err := s.Holds(f)
			if err != nil {
				t.Fatal(err)
			}
			g3, err := s.G3(f)
			if err != nil {
				t.Fatal(err)
			}
			if wantHolds, wantG3 := fdOf(xRows, yRows[i]); holds != wantHolds || g3 != wantG3 {
				t.Fatalf("%s %v: holds %v with g3 %v, recount %v with %v", where, f, holds, g3, wantHolds, wantG3)
			}
		}
		for a := 0; a < m; a++ {
			for _, y := range []AttrSet{NewAttrSet(a), NewAttrSet(a, (a+1)%m)} {
				v := MVD{LHS: lhs, RHS: y}
				got, err := s.MVDHolds(v)
				if err != nil {
					t.Fatal(err)
				}
				z := FullSet(m).Minus(lhs).Minus(y)
				if want := mvdOf(xRows, rs.rows(y.Minus(lhs).Attrs()), rs.rows(z.Attrs())); got != want {
					t.Fatalf("%s %s: MVDHolds %v, recount %v", where, v.Format(c.AttrNames()), got, want)
				}
			}
		}
	}
}

// checkRowGroups holds Π_R's groups (Sets.GroupOf over every attribute)
// to LIMBO's Phase 1 at τ = 0 over the tuple objects — p(t) = 1/n and
// p(V|t) uniform over t's values, as tuples.Objects builds them: the same
// group for every tuple, and the same number of groups.
func checkRowGroups(t *testing.T, ctx context.Context, where string, c relation.Columns) {
	t.Helper()
	n := c.N()
	objs := make([]limbo.Obj, 0, n)
	if err := relation.ForEachRow(c, relation.AllAttrs(c), func(i int, row []int32) bool {
		objs = append(objs, limbo.Obj{ID: int32(i), W: 1 / float64(n), Cond: it.Uniform(row)})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	leaves, leafOf := limbo.Phase1Ctx(ctx, objs, 0, 4)
	of, k, err := NewSets(ctx, c).GroupOf(relation.AllAttrs(c))
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if k != len(leaves) || len(of) != n {
		t.Fatalf("%s: %d groups of %d tuples; Phase 1 has %d leaves of %d", where, k, len(of), len(leaves), n)
	}
	for i, l := range leafOf {
		if of[i] != int(l) {
			t.Fatalf("%s: tuple %d in group %d, Phase 1 says %d", where, i, of[i], l)
		}
	}
}

// attrSetsOf are the sets checkGroupBy asks about: every subset of a
// narrow relation; ∅, R, the single attributes and the neighbouring
// pairs of a wide one.
func attrSetsOf(m int) [][]int {
	if m <= 5 {
		var sets [][]int
		for s := AttrSet(0); s <= FullSet(m); s++ {
			sets = append(sets, s.Attrs())
		}
		return sets
	}
	sets := [][]int{nil, FullSet(m).Attrs()}
	for a := 0; a < m; a++ {
		sets = append(sets, []int{a}, []int{a, (a + 1) % m})
	}
	return sets
}

// TestRowGroupsMatchPhase1 is the oracle of exact tuple grouping: on DB2,
// DBLP 3 000 × 13, the 5 200 × 7 projection and the FuzzGroupBy seeds,
// over the resident adapter and a 32-row-page colstore table, at 1 and
// 4 workers, Π_R's group ids are LIMBO's Phase 1 at τ = 0 over the
// tuple objects (checkRowGroups).
func TestRowGroupsMatchPhase1(t *testing.T) {
	db2, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	inputs := []cornerCase{
		{"db2", db2.Joined},
		{"dblp-3000x13", datagen.NewDBLP(datagen.DBLPConfig{Tuples: 3000, Seed: 2})},
		{"dblp-5200x7", dblp(5200, 1).Project(datagen.ProjectionAttrs())},
	}
	seeds, err := os.ReadDir("testdata/fuzz/FuzzGroupBy")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range seeds {
		inputs = append(inputs, cornerCase{"seed/" + e.Name(), groupByRelation(seedBytes(t, "FuzzGroupBy", e.Name()))})
	}
	for _, in := range inputs {
		for _, src := range []struct {
			name string
			c    relation.Columns
		}{{"resident", relation.AsColumns(in.r)}, {"colstore", pagedTable(t, in.r, 32)}} {
			for _, workers := range []int{1, 4} {
				ctx := exec.WithWorkers(context.Background(), workers)
				checkRowGroups(t, ctx, fmt.Sprintf("%s/%s/workers=%d", in.name, src.name, workers), src.c)
			}
		}
	}
}

func pagedTable(t *testing.T, r *relation.Relation, pageRows int) relation.Columns {
	t.Helper()
	meta := store.DatasetMeta{Hash: fmt.Sprintf("%064x", r.N()), Name: r.Name, Source: "test"}
	path, err := colstore.WriteFromRelation(t.TempDir(), meta, r, colstore.WriteOptions{PageRows: pageRows})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.Close() })
	return tbl
}

// TestGroupByRecount holds the attribute-set kernel — GroupBy,
// HoldsColumns, G3Columns and MVDHolds — to a recount of rendered rows
// (checkGroupBy) on the paper's Figure 4, DB2, DBLP 2 000 × 13, fuzzed
// relations with NULLs, and instances of 0, 1 and 2 tuples; over the
// resident adapter and a 32-row-page colstore table. The kernel itself
// is serial, so the worker axis, 1 and 4, runs the miners that embed it:
// TANE, whose key-pruning fallback asks it whether a dependency holds,
// and MVD mining; what they report must hold, and TANE's must be
// minimal, by the recount, at both budgets alike.
func TestGroupByRecount(t *testing.T) {
	r4 := fig4(t)
	s4 := setsOf(r4)
	_, count, err := s4.GroupBy([]int{1})
	if err != nil || !reflect.DeepEqual(count, []int{2, 3}) { // B: 1 twice, then 2 three times
		t.Fatalf("Figure 4 counts on B: %v (%v)", count, err)
	}
	for _, tc := range []struct {
		attrs    []int
		distinct int
	}{{[]int{1, 2}, 3}, {[]int{0}, 4}, {[]int{0, 1, 2}, 5}} {
		if first, _, _ := s4.GroupBy(tc.attrs); len(first) != tc.distinct {
			t.Fatalf("Figure 4: %d distinct rows on %v, want %d", len(first), tc.attrs, tc.distinct)
		}
	}

	db2, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	inputs := []cornerCase{{"fig4", r4}, {"db2", db2.Joined}, {"dblp-2000", dblp(2000, 1)}}
	for seed := int64(1); seed <= 8; seed++ {
		inputs = append(inputs, cornerCase{fmt.Sprintf("fuzzed/seed=%d", seed), fuzzedRelation(rand.New(rand.NewSource(seed)))})
	}
	for name, ts := range map[string][]int{"n=0": {}, "n=1": {0}, "n=2": {0, 1}, "n=2-twins": {0, 0}} {
		inputs = append(inputs, cornerCase{name, r4.Select(ts)})
	}
	for _, in := range inputs {
		for _, src := range []struct {
			name string
			c    relation.Columns
		}{{"resident", relation.AsColumns(in.r)}, {"colstore", pagedTable(t, in.r, 32)}} {
			where := in.name + "/" + src.name
			checkGroupBy(t, where, src.c, attrSetsOf(in.r.M()))

			rs := renderRows(t, src.c)
			var fds []FD
			var mvds []MVD
			for _, workers := range []int{1, 4} {
				ctx := exec.WithWorkers(context.Background(), workers)
				got, err := TANEColumnsCtx(ctx, NewSets(ctx, src.c))
				if err != nil {
					t.Fatal(err)
				}
				if workers > 1 && !reflect.DeepEqual(got, fds) {
					t.Fatalf("%s: TANE at %d workers diverges from 1", where, workers)
				}
				fds = got
				for _, f := range fds {
					x, y := f.LHS.Attrs(), f.RHS.Attrs()
					if holds, _ := fdOf(rs.rows(x), rs.rows(y)); !holds {
						t.Fatalf("%s: TANE reports %v, which fails the recount", where, f)
					}
					for _, a := range x {
						if holds, _ := fdOf(rs.rows(f.LHS.Remove(a).Attrs()), rs.rows(y)); holds {
							t.Fatalf("%s: TANE reports %v, not minimal by the recount", where, f)
						}
					}
				}
				if in.r.N() > 200 || in.r.M() > 16 {
					continue // MVD mining is exponential in m and scans per candidate
				}
				gotMVDs, err := MineMVDsCtx(ctx, NewSets(ctx, src.c), 0, true)
				if err != nil {
					t.Fatal(err)
				}
				if workers > 1 && !reflect.DeepEqual(gotMVDs, mvds) {
					t.Fatalf("%s: MVD mining at %d workers diverges from 1", where, workers)
				}
				mvds = gotMVDs
				for _, v := range mvds {
					z := FullSet(in.r.M()).Minus(v.LHS).Minus(v.RHS)
					if !mvdOf(rs.rows(v.LHS.Attrs()), rs.rows(v.RHS.Attrs()), rs.rows(z.Attrs())) {
						t.Fatalf("%s: mined %v, which fails the recount", where, v)
					}
				}
			}
		}
	}
}
