package task

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"structmine/internal/datagen"
	"structmine/internal/exec"
	"structmine/internal/relation"
)

func db2(t *testing.T) *relation.Relation {
	t.Helper()
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	return datagen.InjectExactDuplicates(db.Joined, 2, 7).Dirty
}

func narrow(t *testing.T) *relation.Relation {
	t.Helper()
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.Joined.AttrIndices([]string{"EmpNo", "WorkDepNo", "DepName", "ProjNo", "ProjName", "Job"})
	if err != nil {
		t.Fatal(err)
	}
	return db.Joined.Project(ix)
}

// TestRunEveryTask drives each single-relation task through Run and
// checks the result round-trips through JSON.
func TestRunEveryTask(t *testing.T) {
	r := db2(t)
	nr := narrow(t)
	ctx := context.Background()
	for _, s := range Specs {
		if s.MultiFile {
			continue
		}
		rel := r
		if s.Name == "mine-mvds" {
			rel = nr // arity-bounded miner
		}
		got, err := Run(ctx, rel, s.Name, Params{})
		if err != nil {
			t.Errorf("task %s: %v", s.Name, err)
			continue
		}
		buf, err := json.Marshal(got)
		if err != nil {
			t.Errorf("task %s: marshal: %v", s.Name, err)
			continue
		}
		if len(buf) < 2 || buf[0] != '{' {
			t.Errorf("task %s: result is not a JSON object: %.40s", s.Name, buf)
		}
	}
}

func TestRunResultShapes(t *testing.T) {
	r := db2(t)
	ctx := context.Background()

	d, err := Run(ctx, r, "describe", Params{})
	if err != nil {
		t.Fatal(err)
	}
	desc := d.(*DescribeResult)
	if desc.Tuples != r.N() || len(desc.Attrs) != r.M() {
		t.Errorf("describe shape: %d tuples / %d attrs, want %d / %d",
			desc.Tuples, len(desc.Attrs), r.N(), r.M())
	}
	if desc.TupleInfoBits <= 0 {
		t.Error("describe: I(T;V) should be positive")
	}

	dd, err := Run(ctx, r, "dedup", Params{PhiT: F(0.1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(dd.(*DedupResult).Groups) == 0 {
		t.Error("dedup: injected duplicates should yield candidate groups")
	}

	rk, err := Run(ctx, r, "rank-fds", Params{})
	if err != nil {
		t.Fatal(err)
	}
	ranked := rk.(*RankFDsResult)
	if ranked.Psi != 0.5 {
		t.Errorf("rank-fds: default psi = %g, want 0.5", ranked.Psi)
	}
	if len(ranked.Ranked) == 0 {
		t.Error("rank-fds: DB2 sample should yield ranked dependencies")
	}
	for i := 1; i < len(ranked.Ranked); i++ {
		if ranked.Ranked[i].Rank < ranked.Ranked[i-1].Rank {
			t.Error("rank-fds: results must be ordered by ascending rank")
			break
		}
	}

	dec, err := Run(ctx, r, "decompose", Params{})
	if err != nil {
		t.Fatal(err)
	}
	dr := dec.(*DecomposeResult)
	if dr.CellsAfter >= dr.CellsBefore {
		t.Errorf("decompose: cells %d -> %d should shrink", dr.CellsBefore, dr.CellsAfter)
	}
}

func TestRunUnknownTask(t *testing.T) {
	_, err := Run(context.Background(), db2(t), "frobnicate", Params{})
	if err == nil || !strings.Contains(err.Error(), "unknown task") {
		t.Fatalf("want unknown-task error, got %v", err)
	}
	_, err = Run(context.Background(), db2(t), "joins", Params{})
	if err == nil {
		t.Fatal("joins must be rejected by Run (multi-relation)")
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"describe", "rank-fds", "report", "dedup"} {
		if _, err := Run(ctx, db2(t), name, Params{}); err == nil {
			t.Errorf("task %s: canceled context should abort", name)
		}
	}
}

// TestCancelRunningMVDMining cancels mine-mvds while its candidate loop
// runs — a full row scan per candidate, ≈ 2 minutes in all on a
// 1 000 × 13 DBLP sample — and expects it back, typed, within one
// candidate.
func TestCancelRunningMVDMining(t *testing.T) {
	r := datagen.NewDBLP(datagen.DBLPConfig{Tuples: 1000, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, r, "mine-mvds", Params{})
		done <- err
	}()
	time.Sleep(200 * time.Millisecond) // past the TANE prelude, into the candidates
	canceled := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if d := time.Since(canceled); d > time.Second {
			t.Errorf("returned %v after the cancel", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("mine-mvds ignored its cancellation")
	}
}

// TestCancelRunningApproxFDs cancels approx-fds on a DBLP 8 000 × 13
// sample with no practical left-hand-side bound — ≈ 0.7 s at one worker
// on a 2-core machine — while its lattice walk runs, and expects it
// back, typed, within about one level.
func TestCancelRunningApproxFDs(t *testing.T) {
	r := datagen.NewDBLP(datagen.DBLPConfig{Tuples: 8000, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28})
	ctx, cancel := context.WithCancel(exec.WithWorkers(context.Background(), 1))
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, r, "approx-fds", Params{MaxLHS: 12})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // past the task's entry check, into the miner
	canceled := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if d := time.Since(canceled); d > time.Second {
			t.Errorf("returned %v after the cancel", d)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("approx-fds ignored its cancellation")
	}
}

func TestParamsNormalizeAndCacheKey(t *testing.T) {
	// Knobs a task never reads must not affect its cache key.
	a := Params{Psi: F(0.7)}.CacheKey("dedup")
	b := Params{}.CacheKey("dedup")
	if a != b {
		t.Errorf("psi must not affect dedup key:\n%s\n%s", a, b)
	}
	// Defaults normalize to the same key as explicit values.
	if (Params{}).CacheKey("rank-fds") != (Params{Psi: F(0.5)}).CacheKey("rank-fds") {
		t.Error("default psi and explicit 0.5 should share a key")
	}
	// Knobs a task does read must change the key.
	if (Params{PhiT: F(0.2)}).CacheKey("dedup") == (Params{}).CacheKey("dedup") {
		t.Error("phit must affect dedup key")
	}
	if (Params{}).CacheKey("dedup") == (Params{}).CacheKey("values") {
		t.Error("different tasks must have different keys")
	}
	// An explicit zero is a different query than an unset knob: ψ = 0
	// disables the FD-RANK threshold, it does not mean "default".
	if (Params{Psi: F(0)}).CacheKey("rank-fds") == (Params{}).CacheKey("rank-fds") {
		t.Error("explicit psi=0 must not collapse into the default")
	}
	if got := (Params{Psi: F(0)}).Normalize("rank-fds"); got.Psi == nil || *got.Psi != 0 {
		t.Errorf("explicit psi=0 normalized to %v, want 0", got.Psi)
	}
	// approx-fds resolves what its miner would read the same way: a
	// negative ε is ε = 0 and a non-positive max_lhs the default 3, so
	// each shares that key and the artifact echoes the resolved value.
	for _, c := range []struct{ odd, same Params }{
		{Params{Eps: F(-1)}, Params{Eps: F(0)}},
		{Params{MaxLHS: -2}, Params{MaxLHS: 3}},
		{Params{MaxLHS: -1}, Params{}},
	} {
		if got, want := c.odd.CacheKey("approx-fds"), c.same.CacheKey("approx-fds"); got != want {
			t.Errorf("approx-fds %+v keyed %q, want %q", c.odd, got, want)
		}
	}
	if got := (Params{Eps: F(-1), MaxLHS: -1}).Normalize("approx-fds"); *got.Eps != 0 || got.MaxLHS != 3 {
		t.Errorf("approx-fds eps=-1 max_lhs=-1 normalized to eps=%v max_lhs=%d, want 0 and 3", *got.Eps, got.MaxLHS)
	}
	// So does every other knob a runner reads as another value: φT, φV
	// and min_sim below 0 act as 0, mine-mvds' non-positive max_lhs as
	// its default bound 2, and partition's k < 0 as the automatic k = 0.
	for _, c := range []struct {
		task      string
		odd, same Params
	}{
		{"dedup", Params{PhiT: F(-0.1)}, Params{PhiT: F(0)}},
		{"dedup", Params{PhiT: F(-1)}, Params{}},
		{"dedup", Params{MinSim: F(-0.5)}, Params{MinSim: F(0)}},
		{"report", Params{PhiT: F(-0.3)}, Params{PhiT: F(0)}},
		{"values", Params{PhiV: F(-0.2)}, Params{}},
		{"group-attrs", Params{PhiV: F(-1), PhiT: F(-1), Double: true}, Params{PhiV: F(0), PhiT: F(0), Double: true}},
		{"mine-mvds", Params{}, Params{MaxLHS: 2}},
		{"mine-mvds", Params{MaxLHS: -1}, Params{MaxLHS: 2}},
		{"partition", Params{K: -3}, Params{}},
	} {
		if got, want := c.odd.CacheKey(c.task), c.same.CacheKey(c.task); got != want {
			t.Errorf("%s %+v keyed %q, want %q", c.task, c.odd, got, want)
		}
		if got, want := c.odd.Normalize(c.task), c.same.Normalize(c.task); !reflect.DeepEqual(got, want) {
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			t.Errorf("%s %q normalized to %s, want %s", c.task, c.odd.CacheKey(c.task), g, w)
		}
	}
	// The rendered key format is a persisted contract: artifacts written
	// by one build must stay addressable by the next.
	const wantKey = "rank-fds|phit=0|phiv=0|psi=0.5|k=0|eps=0|maxlhs=0|minsim=0|double=false|mincont=0"
	if got := (Params{}).CacheKey("rank-fds"); got != wantKey {
		t.Errorf("cache key format drifted:\n got %s\nwant %s", got, wantKey)
	}
}

// TestDedupNegativePhiT: a negative φT is φT = 0, not a negative
// threshold under which Phase 1 absorbs nothing. On six rows holding two
// exact-duplicate pairs, dedup at φT = -0.1 returns the φT = 0 artifact,
// with both pairs grouped.
func TestDedupNegativePhiT(t *testing.T) {
	r, err := relation.ReadCSV("dups", strings.NewReader("a,b,c\nx,1,p\ny,2,q\nx,1,p\nz,3,r\ny,2,q\nw,4,s\n"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(phiT float64) []byte {
		res, err := Run(context.Background(), r, "dedup", Params{PhiT: F(phiT)})
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	zero, neg := run(0), run(-0.1)
	if !bytes.Equal(neg, zero) {
		t.Fatalf("dedup at φT = -0.1:\n%s\nat φT = 0:\n%s", neg, zero)
	}
	var res DedupResult
	if err := json.Unmarshal(zero, &res); err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{0, 2}, {1, 4}}; !reflect.DeepEqual(res.Groups, want) {
		t.Fatalf("groups %v, want %v", res.Groups, want)
	}
}

// TestParamsJSONPresence pins the wire semantics of the pointer knobs:
// an absent JSON field is nil (take the default), an explicit 0 is an
// explicit zero, and marshaling omits only unset knobs.
func TestParamsJSONPresence(t *testing.T) {
	var p Params
	if err := json.Unmarshal([]byte(`{"psi":0}`), &p); err != nil {
		t.Fatal(err)
	}
	if p.Psi == nil || *p.Psi != 0 {
		t.Fatalf("explicit psi:0 parsed as %v", p.Psi)
	}
	var q Params
	if err := json.Unmarshal([]byte(`{}`), &q); err != nil {
		t.Fatal(err)
	}
	if q.Psi != nil {
		t.Fatalf("absent psi parsed as %v, want nil", *q.Psi)
	}
	buf, err := json.Marshal(Params{Psi: F(0), K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != `{"psi":0,"k":2}` {
		t.Fatalf("marshal = %s", buf)
	}
}

func TestUsageAndNames(t *testing.T) {
	u := Usage()
	for _, n := range Names() {
		if !strings.Contains(u, n) {
			t.Errorf("usage text omits task %s", n)
		}
	}
	if _, ok := Lookup("rank-fds"); !ok {
		t.Error("rank-fds must be a known task")
	}
}

func TestJoinsResult(t *testing.T) {
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Joins([]relation.Columns{
		relation.AsColumns(db.Employee), relation.AsColumns(db.Department), relation.AsColumns(db.Project),
	}, 0.95, 2)
	if err != nil || len(res.Candidates) == 0 {
		t.Fatal("DB2 sample relations should have joinable attribute pairs")
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
}

// loadCounter is a Columns that serves level-1 partitions
// (relation.PartitionSource) and counts how often each attribute's is
// asked for.
type loadCounter struct {
	relation.Columns
	loads []int
}

func (c *loadCounter) SinglePartition(a int) (elems, offs []int32, err error) {
	c.loads[a]++
	return relation.StrippedPartition(c.Columns, a, nil, nil, nil)
}

// TestJobLoadsEachAttributeOnce: a job asks every exact question about
// an attribute set of one kernel (fd.Sets), so no task loads an
// attribute's level-1 partition twice — rank-fds, decompose and report
// with their measures and g3 rows, dedup's Π_R, double clustering's
// tuple groups and the miners included — on DB2, its six-attribute
// projection and DBLP's 5 200 × 7 projection, which takes rank-fds'
// double-clustering path.
func TestJobLoadsEachAttributeOnce(t *testing.T) {
	proj := datagen.NewDBLP(datagen.DBLPConfig{Tuples: 5200, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28}).
		Project(datagen.ProjectionAttrs())
	for _, r := range []*relation.Relation{db2(t), narrow(t), proj} {
		for _, spec := range Specs {
			if spec.MultiFile || (spec.Name == "mine-mvds" && (r.M() > 16 || r.N() > 1000)) {
				continue // MVD mining takes at most 16 attributes: the narrow projection covers it
			}
			c := &loadCounter{Columns: relation.AsColumns(r), loads: make([]int, r.M())}
			if _, err := RunColumns(context.Background(), c, spec.Name, Params{}); err != nil {
				t.Fatalf("%s/%s: %v", r.Name, spec.Name, err)
			}
			for a, k := range c.loads {
				if k > 1 {
					t.Errorf("%s/%s: attribute %d loaded %d times", r.Name, spec.Name, a, k)
				}
			}
		}
	}
}
