package task

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"structmine/internal/obs"
	"structmine/internal/relation"
)

// memIntermediates holds one dataset's intermediates by kind and
// parameters, whatever epoch left them.
type memIntermediates map[string][]byte

func (m memIntermediates) LoadIntermediate(kind string, p Params) ([]byte, bool) {
	data, ok := m[p.CacheKey(kind)]
	return data, ok
}

func (m memIntermediates) SaveIntermediate(kind string, p Params, data []byte) {
	m[p.CacheKey(kind)] = data
}

func stateRel(t *testing.T, n int, seed int64) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString("id,city,zip,grade\n")
	for i := 0; i < n; i++ {
		city := fmt.Sprintf("c%d", rng.Intn(7))
		fmt.Fprintf(&sb, "%d,%s,z-%s,g%d\n", i, city, city, rng.Intn(3))
	}
	r, err := relation.ReadCSV("t", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runWithIntermediates runs one task under WithIntermediates and reports
// whether it was timed as a delta re-mine.
func runWithIntermediates(t *testing.T, c relation.Columns, name string, im Intermediates) (any, bool) {
	t.Helper()
	before := obs.DeltaRemineSeconds.Count()
	res, err := RunColumns(WithIntermediates(context.Background(), im), c, name, Params{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res, obs.DeltaRemineSeconds.Count() == before+1
}

// TestStateDeltaMatchesScratch pins the contract the append path
// depends on: for every state-aware task, a scratch run seeds the state,
// and a delta run over the appended relation returns JSON identical to a
// stateless scratch run on the same final relation. partition keeps no
// state: both of its runs are scratch runs, and the second one matches
// too.
func TestStateDeltaMatchesScratch(t *testing.T) {
	base := stateRel(t, 150, 5)
	ext, err := base.Extend([][]string{
		{"900", "c1", "z-c1", "g0"},
		{"901", "c3", "z-c3", "g2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mine-fds", "rank-fds", "partition"} {
		t.Run(name, func(t *testing.T) {
			stateful := name != "partition"
			ss := memIntermediates{}
			if _, delta := runWithIntermediates(t, relation.AsColumns(base), name, ss); delta {
				t.Fatal("seed run took the delta path")
			}
			if (len(ss) > 0) != stateful {
				t.Fatalf("seed run saved %d states", len(ss))
			}
			got, delta := runWithIntermediates(t, relation.AsColumns(ext), name, ss)
			if delta != stateful {
				t.Fatalf("append run: delta=%v", delta)
			}
			want, err := Run(context.Background(), ext, name, Params{})
			if err != nil {
				t.Fatal(err)
			}
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			if string(gj) != string(wj) {
				t.Fatalf("delta result diverges from scratch:\n got %s\nwant %s", gj, wj)
			}
		})
	}
}

// TestStateReachAndFallbacks: state is touched whenever a store travels
// on the context, whatever Columns the rows come through; a task without
// delta support ignores it; corrupt state degrades to a scratch run.
func TestStateReachAndFallbacks(t *testing.T) {
	r := stateRel(t, 60, 2)
	ext, err := r.Extend([][]string{{"900", "c1", "z-c1", "g0"}})
	if err != nil {
		t.Fatal(err)
	}
	// Any Columns will do — here one that is not an AsColumns value: the
	// seed run saves state and the run after the append resumes it.
	wrap := func(r *relation.Relation) relation.Columns {
		return struct{ relation.Columns }{relation.AsColumns(r)}
	}
	ss := memIntermediates{}
	if _, delta := runWithIntermediates(t, wrap(r), "mine-fds", ss); delta || len(ss) != 1 {
		t.Fatalf("mine-fds seed run: delta=%v, %d states saved, want a scratch run that saves one", delta, len(ss))
	}
	got, delta := runWithIntermediates(t, wrap(ext), "mine-fds", ss)
	if !delta {
		t.Fatal("mine-fds after an append did not resume the saved state")
	}
	want, err := Run(context.Background(), ext, "mine-fds", Params{})
	if err != nil {
		t.Fatal(err)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Fatalf("mine-fds resumed over wrapped columns diverges from scratch:\n got %s\nwant %s", gj, wj)
	}
	ss = memIntermediates{}
	got, delta = runWithIntermediates(t, relation.AsColumns(r), "describe", ss)
	if delta || len(ss) != 0 {
		t.Fatalf("describe: delta=%v, %d states saved", delta, len(ss))
	}
	want, err = Run(context.Background(), r, "describe", Params{})
	if err != nil {
		t.Fatal(err)
	}
	gj, _ = json.Marshal(got)
	wj, _ = json.Marshal(want)
	if string(gj) != string(wj) {
		t.Fatalf("describe result drifted: %s vs %s", gj, wj)
	}
	// Corrupt state must degrade to a scratch run, not an error.
	ss = memIntermediates{}
	ss.SaveIntermediate(KindFDState, Params{}, []byte("garbage"))
	if _, delta := runWithIntermediates(t, relation.AsColumns(r), "mine-fds", ss); delta {
		t.Fatal("mine-fds took the delta path over corrupt state")
	}
}
