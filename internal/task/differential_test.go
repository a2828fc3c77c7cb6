package task

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"structmine/internal/colstore"
	"structmine/internal/datagen"
	"structmine/internal/exec"
	"structmine/internal/fd"
	"structmine/internal/obs"
	"structmine/internal/relation"
	"structmine/internal/store"
)

// diffSource is one generated relation of the differential table: its
// rows in generation order, so a base is a prefix and a natural append
// the rows that follow it. The last attribute, Src, is constant — the
// planted ∅ → A dependency.
type diffSource struct {
	name  string
	attrs []string
	rows  [][]string
	base  int // rows of the base relation
}

func diffSources(t *testing.T) []diffSource {
	t.Helper()
	withSrc := func(name string, r *relation.Relation, base int) diffSource {
		s := diffSource{name: name, attrs: append(append([]string{}, r.Attrs...), "Src"), base: base}
		for i := 0; i < r.N(); i++ {
			s.rows = append(s.rows, append(r.TupleStrings(i), name))
		}
		return s
	}
	// DBLP: NULL-heavy Volume/Journal/Number/BookTitle, Journal → nothing
	// much, plenty of accidental dependencies to break.
	dblp := datagen.NewDBLP(datagen.DBLPConfig{Tuples: 330, Seed: 3, MiscFrac: 0.01, JournalFrac: 0.28}).
		Project(datagen.ProjectionAttrs())
	// DB2 sample join: planted key/foreign-key dependencies, a NULL
	// column (MajorProjNo) and department numbers repeated as strings
	// under three attributes.
	db2, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db2.Joined.AttrIndices([]string{
		"EmpNo", "LastName", "WorkDepNo", "DepName", "MgrNo", "AdminDepNo", "ProjNo", "MajorProjNo"})
	if err != nil {
		t.Fatal(err)
	}
	return []diffSource{
		withSrc("dblp", dblp, 200),
		withSrc("db2", db2.Joined.Project(ix), 60),
	}
}

func (s diffSource) relation(t *testing.T, rows [][]string) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder(s.name, s.attrs)
	for _, row := range rows {
		if err := b.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	return b.Relation()
}

// fresh is a row no value of which any other row carries, but for Src.
func (s diffSource) fresh(tag string) []string {
	row := make([]string, len(s.attrs))
	for a := range row {
		row[a] = fmt.Sprintf("%s-%d", tag, a)
	}
	row[len(row)-1] = s.name
	return row
}

func fallbackCounts() map[string]uint64 {
	out := map[string]uint64{}
	for _, reason := range obs.DeltaFallbackReasons {
		out[reason] = obs.DeltaFallbacks.With(reason).Value()
	}
	return out
}

func tableOf(t *testing.T, r *relation.Relation) relation.Columns {
	t.Helper()
	meta := store.DatasetMeta{Hash: fmt.Sprintf("%064x", r.N()), Name: r.Name, Source: "test"}
	path, err := colstore.WriteFromRelation(t.TempDir(), meta, r, colstore.WriteOptions{PageRows: 32})
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

// tane mines r with the TANE lattice walk over its resident adapter.
func tane(r *relation.Relation) ([]fd.FD, error) {
	ctx := context.Background()
	return fd.TANEColumnsCtx(ctx, fd.NewSets(ctx, relation.AsColumns(r)))
}

func sortedFDs(t *testing.T, miner func(*relation.Relation) ([]fd.FD, error), r *relation.Relation) []fd.FD {
	t.Helper()
	fds, err := miner(r)
	if err != nil {
		t.Fatal(err)
	}
	fd.SortFDs(fds)
	return fds
}

// TestDifferentialFDs is the FD leg of the differential table: over
// generated relations with planted dependencies, NULLs and strings
// repeated across attributes, TANE ≡ FDEP ≡ brute force ≡ the
// delta-after-append path of mine-fds — on the resident adapter and on a
// colstore table, at one worker and at four — and the delta path gives
// up exactly when one of the five counted reasons says so: the state is
// missing, corrupt (not JSON of a state, or naming an attribute past its
// width) or of another shape, the append is oversized, or an
// appended row breaks a previously minimal dependency (two appended rows
// between them, an appended row against the prefix, or a constant
// attribute that stops being one).
func TestDifferentialFDs(t *testing.T) {
	for _, src := range diffSources(t) {
		base := src.relation(t, src.rows[:src.base])
		m := base.M()
		prev := sortedFDs(t, tane, base)
		var planted fd.FD // a previously minimal X → A, X ≠ ∅
		for _, f := range prev {
			if !f.LHS.Empty() {
				planted = f
				break
			}
		}
		if planted.LHS.Empty() || !reflect.DeepEqual(prev[0], fd.FD{RHS: fd.NewAttrSet(m - 1)}) {
			t.Fatalf("%s: base dependencies %v lack ∅ → Src or a keyed one", src.name, prev)
		}
		a := planted.RHS.Attrs()[0]
		state := fd.EncodeState(&fd.MineState{N: base.N(), Attrs: m, FDs: prev})

		natural := func(pct int) [][]string { // pct of the extended relation
			k := src.base * pct / (100 - pct)
			return src.rows[src.base : src.base+k]
		}
		twin := src.fresh("pair")
		twin[a] = "pair-other"
		across := src.fresh("lone")
		for _, x := range planted.LHS.Attrs() {
			across[x] = src.rows[0][x]
		}
		drifted := append([]string{}, src.rows[1]...)
		drifted[m-1] = "elsewhere"

		for _, tc := range []struct {
			name  string
			rows  [][]string
			state []byte // nil: none saved
			want  string // a fallback reason; "" = delta; "?" = whatever the oracle says
		}{
			{"append-1", src.rows[src.base : src.base+1], state, "?"},
			{"append-7", src.rows[src.base : src.base+7], state, "?"},
			{"append-10pct", natural(10), state, "?"},
			{"append-30pct", natural(30), state, obs.FallbackOversized},
			{"dup-rows", src.rows[3:9], state, ""},
			{"break-among-appended", [][]string{src.fresh("pair"), twin}, state, obs.FallbackFDBroken},
			{"break-across-prefix", [][]string{across}, state, obs.FallbackFDBroken},
			{"break-constant", [][]string{drifted}, state, obs.FallbackFDBroken},
			{"no-state", src.rows[3:4], nil, obs.FallbackNoState},
			{"corrupt-state", src.rows[3:4], []byte("SMFD\x02\x00 not a state"), obs.FallbackCorruptState},
			{"state-past-width", src.rows[3:4], []byte(fmt.Sprintf(`{"N":%d,"Attrs":%d,"FDs":[{"LHS":0,"RHS":%d}]}`, base.N(), m, uint64(1)<<m)), obs.FallbackCorruptState},
			{"state-of-wider-schema", src.rows[3:4], fd.EncodeState(&fd.MineState{N: base.N(), Attrs: m + 1}), obs.FallbackShape},
			{"state-of-more-rows", src.rows[3:4], fd.EncodeState(&fd.MineState{N: base.N() + 2, Attrs: m, FDs: prev}), obs.FallbackShape},
		} {
			t.Run(src.name+"/"+tc.name, func(t *testing.T) {
				ext, err := base.Extend(tc.rows)
				if err != nil {
					t.Fatal(err)
				}
				want := sortedFDs(t, tane, ext)
				if got := sortedFDs(t, fd.FDEP, ext); !reflect.DeepEqual(got, want) {
					t.Fatalf("FDEP %v\nTANE %v", got, want)
				}
				if got := sortedFDs(t, fd.BruteForce, ext); !reflect.DeepEqual(got, want) {
					t.Fatalf("brute %v\nTANE  %v", got, want)
				}
				// The oracle for the append cases: the delta path holds
				// unless the append is oversized or breaks a dependency.
				reason := tc.want
				if reason == "?" {
					reason = ""
					for _, f := range prev {
						if !fd.Holds(ext, f) {
							reason = obs.FallbackFDBroken
						}
					}
				}
				if reason == obs.FallbackFDBroken && reflect.DeepEqual(prev, want) {
					t.Fatal("the append was meant to break a dependency and broke none")
				}

				for _, tier := range []struct {
					name string
					c    relation.Columns
				}{{"resident", relation.AsColumns(ext)}, {"colstore", tableOf(t, ext)}} {
					for _, workers := range []int{1, 4} {
						im := &memIntermediates{state: tc.state}
						ctx := WithIntermediates(exec.WithWorkers(context.Background(), workers), im)
						before, remines := fallbackCounts(), obs.DeltaRemineSeconds.Count()
						got, err := minedFDs(ctx, fd.NewSets(ctx, tier.c))
						if err != nil {
							t.Fatal(err)
						}
						where := fmt.Sprintf("%s, %d workers", tier.name, workers)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: mined %v\nTANE  %v", where, got, want)
						}
						for r, n := range fallbackCounts() {
							if moved, expect := n-before[r], r == reason; moved > 1 || (moved == 1) != expect {
								t.Fatalf("%s: fallback %q counted %d times, want only %q", where, r, moved, reason)
							}
						}
						if delta := obs.DeltaRemineSeconds.Count() == remines+1; delta != (reason == "") {
							t.Fatalf("%s: delta=%v with fallback reason %q", where, delta, reason)
						}
						saved, err := fd.DecodeState(im.state)
						if err != nil || !reflect.DeepEqual(saved, &fd.MineState{N: ext.N(), Attrs: m, FDs: want}) {
							t.Fatalf("%s: state left behind %+v (%v)", where, saved, err)
						}
					}
				}
			})
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestDifferentialClustering is the LIMBO leg of the differential table.
// Every task that runs a threshold-bounded Phase 1 pass returns one
// artifact, byte for byte, on the resident adapter and on a 32-row-page
// colstore table, at one worker and at four, and under no Intermediates,
// an empty one, one warm with the FD state of its own rows, and one
// holding the FD state the previous epoch's rows left. The rows: dedup and
// double-clustered group-attrs at φT 0 and 0.3, rank-fds and decompose
// (held to the double path by lowering largeInstance), and — the float
// DCF-tree over value objects — values at φV 0 and 0.3 and
// single-clustered group-attrs at φV 0.3. Phase 1 lives inside one job,
// so nothing the FD-state slot holds can move a clustering.
func TestDifferentialClustering(t *testing.T) {
	defer func(n int) { largeInstance = n }(largeInstance)
	largeInstance = 50

	rows := []struct {
		task string
		p    Params
	}{
		{"dedup", Params{PhiT: F(0)}},
		{"dedup", Params{PhiT: F(0.3)}},
		{"group-attrs", Params{PhiT: F(0), Double: true}},
		{"group-attrs", Params{PhiT: F(0.3), Double: true}},
		{"rank-fds", Params{}}, // FD-RANK fixes φT = 0
		{"decompose", Params{}},
		{"values", Params{PhiV: F(0)}},
		{"values", Params{PhiV: F(0.3)}},
		{"group-attrs", Params{PhiV: F(0.3)}},
	}
	for _, src := range diffSources(t) {
		// The append: a tenth more rows, then six exact duplicates, so
		// the φT = 0 pass has multi-tuple leaves to carry.
		grown := append(append([][]string{}, src.rows[:src.base+src.base/10]...), src.rows[3:9]...)
		base, full := src.relation(t, src.rows[:src.base]), src.relation(t, grown)
		// holding returns a fresh slot per run: a run saves its own state.
		holding := func(r *relation.Relation) func() Intermediates {
			state := fd.EncodeState(&fd.MineState{N: r.N(), Attrs: r.M(), FDs: sortedFDs(t, tane, r)})
			return func() Intermediates {
				return &memIntermediates{state: state}
			}
		}
		slots := []struct {
			name string
			im   func() Intermediates
		}{
			{"no intermediates", func() Intermediates { return nil }},
			{"empty slot", func() Intermediates { return &memIntermediates{} }},
			{"warm FD state", holding(full)},
			{"previous epoch's FD state", holding(base)},
		}
		tiers := []struct {
			name string
			c    relation.Columns
		}{{"resident", relation.AsColumns(full)}, {"colstore", tableOf(t, full)}}

		for _, row := range rows {
			run := func(c relation.Columns, workers int, im Intermediates) any {
				t.Helper()
				ctx := exec.WithWorkers(context.Background(), workers)
				if im != nil {
					ctx = WithIntermediates(ctx, im)
				}
				res, err := RunColumns(ctx, c, row.task, row.p)
				if err != nil {
					t.Fatalf("%s: %s %+v: %v", src.name, row.task, row.p, err)
				}
				return res
			}
			ref := run(tiers[0].c, 1, nil)
			if d, ok := ref.(*DedupResult); ok && fv(row.p.PhiT) == 0 && len(d.Groups) == 0 {
				t.Fatalf("%s: the φT = 0 pass carries no multi-tuple leaf; the table has no teeth", src.name)
			}
			want := mustJSON(t, ref)
			for _, tier := range tiers {
				for _, workers := range []int{1, 4} {
					for _, slot := range slots {
						if got := mustJSON(t, run(tier.c, workers, slot.im())); string(got) != string(want) {
							t.Fatalf("%s/%s/%dw %q, %s:\n got %s\nwant %s",
								src.name, tier.name, workers, row.p.CacheKey(row.task), slot.name, got, want)
						}
					}
				}
			}
		}
	}
}
