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

// memIntermediates is the FD-state slot of one dataset in memory,
// whatever epoch left it; nil until a run saves a state.
type memIntermediates struct{ state []byte }

func (m *memIntermediates) LoadFDState() ([]byte, bool) { return m.state, m.state != nil }
func (m *memIntermediates) SaveFDState(data []byte)     { m.state = data }

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
			ss := &memIntermediates{}
			if _, delta := runWithIntermediates(t, relation.AsColumns(base), name, ss); delta {
				t.Fatal("seed run took the delta path")
			}
			if (ss.state != nil) != stateful {
				t.Fatalf("seed run saved state %q", ss.state)
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
	ss := &memIntermediates{}
	if _, delta := runWithIntermediates(t, wrap(r), "mine-fds", ss); delta || ss.state == nil {
		t.Fatalf("mine-fds seed run: delta=%v, state %q saved, want a scratch run that saves one", delta, ss.state)
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
	ss = &memIntermediates{}
	got, delta = runWithIntermediates(t, relation.AsColumns(r), "describe", ss)
	if delta || ss.state != nil {
		t.Fatalf("describe: delta=%v, state %q saved", delta, ss.state)
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
	ss = &memIntermediates{state: []byte("garbage")}
	if _, delta := runWithIntermediates(t, relation.AsColumns(r), "mine-fds", ss); delta {
		t.Fatal("mine-fds took the delta path over corrupt state")
	}
}
