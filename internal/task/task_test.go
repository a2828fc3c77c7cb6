package task

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"structmine/internal/datagen"
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
	// The rendered key format is a persisted contract: artifacts written
	// by one build must stay addressable by the next.
	const wantKey = "rank-fds|phit=0|phiv=0|psi=0.5|k=0|eps=0|maxlhs=0|minsim=0|double=false|mincont=0"
	if got := (Params{}).CacheKey("rank-fds"); got != wantKey {
		t.Errorf("cache key format drifted:\n got %s\nwant %s", got, wantKey)
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
