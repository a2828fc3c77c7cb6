package task

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"structmine/internal/fd"
	"structmine/internal/limbo"
	"structmine/internal/relation"
	"structmine/internal/tuples"
	"structmine/internal/values"
)

// rowsOf reads every tuple's value ids off c's pages, rows[t][a].
func rowsOf(t *testing.T, c relation.Columns) [][]int32 {
	t.Helper()
	attrs := make([]int, c.M())
	for a := range attrs {
		attrs[a] = a
	}
	var rows [][]int32
	var dst [][]int32
	for p := 0; p < c.NumPages(); p++ {
		cols, err := c.ReadStripe(p, attrs, dst)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.PageLen(p); i++ {
			row := make([]int32, len(cols))
			for a, col := range cols {
				row[a] = col[i]
			}
			rows = append(rows, row)
		}
		dst = cols
	}
	return rows
}

// TestValueGroupsSumTheirMembers holds matrix O to Phase 1 membership:
// a group's members are the values Phase 1 put in its leaf, their count
// is the leaf DCF's N, and O[a] is the number of cells of attribute a
// that hold a member, recounted from the rows. The sum of a row is then
// the members' total occurrences. Phase 3's association (Group.Values)
// is a different set at φV > 0 and must not be what O sums over; at
// φV = 0 the two coincide.
func TestValueGroupsSumTheirMembers(t *testing.T) {
	ctx := context.Background()
	for _, r := range oracleSources(t) {
		for _, tier := range []struct {
			name string
			c    relation.Columns
		}{{"resident", relation.AsColumns(r)}, {"colstore", tableOf(t, r)}} {
			c := tier.c
			rows := rowsOf(t, c)
			for _, double := range []bool{false, true} {
				objs, err := values.ObjectsColumnsCtx(ctx, c)
				if double {
					var assign []int
					var k int
					if assign, k, err = tuples.CompressColumns(ctx, fd.NewSets(ctx, c), 0, defaultB); err != nil {
						t.Fatal(err)
					}
					objs, err = values.ObjectsOverClustersColumnsCtx(ctx, c, assign, k)
				}
				if err != nil {
					t.Fatal(err)
				}
				for _, phiV := range []float64{0, 0.25, 0.5} {
					where := fmt.Sprintf("%s %s, double=%t, φV=%v", r.Name, tier.name, double, phiV)
					vc := values.ClusterCtx(ctx, objs, phiV, defaultB, c.M())
					_, leafOf := limbo.Phase1Ctx(ctx, objs, vc.Threshold, defaultB)
					members := make([][]int32, len(vc.Groups))
					for v, g := range leafOf {
						members[g] = append(members[g], int32(v))
					}
					want := make([][]int64, len(vc.Groups))
					for g := range want {
						want[g] = make([]int64, c.M())
					}
					occ := make([]int64, c.D())
					for _, row := range rows {
						for a, v := range row {
							want[leafOf[v]][a]++
							occ[v]++
						}
					}
					for g, grp := range vc.Groups {
						if len(members[g]) != grp.DCF.N {
							t.Fatalf("%s: group %d has %d members, its DCF says N = %d", where, g, len(members[g]), grp.DCF.N)
						}
						var total, sum int64
						for _, v := range members[g] {
							total += occ[v]
						}
						for _, n := range grp.O {
							sum += n
						}
						if sum != total {
							t.Fatalf("%s: group %d's O row sums to %d, its members occur %d times", where, g, sum, total)
						}
						if !slices.Equal(grp.O, want[g]) {
							t.Fatalf("%s: group %d's O row %v, the rows say %v", where, g, grp.O, want[g])
						}
						if phiV == 0 && !slices.Equal(grp.Values, members[g]) {
							t.Fatalf("%s: group %d associates %v, its members are %v", where, g, grp.Values, members[g])
						}
					}
				}
			}
		}
	}
}

// TestValuesTuplesRecount holds the values task's per-group tuple count
// to a recount from the rows: the tuples holding any of the group's
// values.
func TestValuesTuplesRecount(t *testing.T) {
	for _, r := range oracleSources(t) {
		c := relation.AsColumns(r)
		res, err := RunColumns(context.Background(), c, "values", Params{})
		if err != nil {
			t.Fatal(err)
		}
		groups := res.(*ValuesResult).DuplicateGroups
		if len(groups) == 0 {
			t.Fatalf("%s: no duplicate value groups to check", r.Name)
		}
		strs, err := c.ValueStrings()
		if err != nil {
			t.Fatal(err)
		}
		names := c.AttrNames()
		label := make([]string, c.D())
		for v := range label {
			label[v] = names[c.ValueAttr(int32(v))] + "=" + strs[v]
		}
		rows := rowsOf(t, c)
		for i, g := range groups {
			in := map[string]bool{}
			for _, l := range g.Values {
				in[l] = true
			}
			n := 0
			for _, row := range rows {
				if slices.ContainsFunc(row, func(v int32) bool { return in[label[v]] }) {
					n++
				}
			}
			if g.Tuples != n {
				t.Errorf("%s: group %d %v reports %d tuples, %d hold one of its values", r.Name, i, g.Values, g.Tuples, n)
			}
		}
	}
}
