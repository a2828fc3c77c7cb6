package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"structmine/internal/fd"
	"structmine/internal/obs"
	"structmine/internal/relation"
	"structmine/internal/store"
	"structmine/internal/task"
)

// appendCSVRows builds a deterministic CSV instance with an embedded FD
// (city → zip) and enough value reuse that appends exercise both
// existing and fresh dictionary entries.
func appendCSVRows(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]string, n)
	for i := 0; i < n; i++ {
		city := fmt.Sprintf("c%d", rng.Intn(9))
		rows[i] = fmt.Sprintf("%d,%s,z-%s,g%d", i, city, city, rng.Intn(4))
	}
	return rows
}

const appendHeader = "id,city,zip,grade"

func csvOf(rows []string) []byte {
	return []byte(appendHeader + "\n" + strings.Join(rows, "\n") + "\n")
}

// mineResult submits the task, waits, and returns the raw "result" JSON.
func mineResult(t *testing.T, ts *httptest.Server, dsID, taskName string) json.RawMessage {
	t.Helper()
	var v JobView
	code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
		submitRequest{Dataset: dsID, Task: taskName}, &v)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit %s: %d %s", taskName, code, body)
	}
	if got := waitJob(t, ts, v.ID); got.State != StateDone {
		t.Fatalf("%s: job state = %s (%s)", taskName, got.State, got.Error)
	}
	var res struct {
		Result json.RawMessage `json:"result"`
	}
	if code, body := doJSON(t, "GET", ts.URL+"/v1/jobs/"+v.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result %s: %d %s", taskName, code, body)
	}
	return res.Result
}

// TestPropDeltaMatchesScratch is the append correctness bar: for a
// sweep of append sizes on both storage tiers — paged with -persist,
// and resident on a memory-only server — every mining artifact computed after register →
// mine → append → re-mine is byte-identical to the artifact a fresh
// registration of the concatenated contents produces. The first server
// mines before appending so the FD re-mines genuinely consume the state
// the previous epoch left (the delta path; partition keeps none and runs
// from scratch); the second server never sees the lineage at all.
func TestPropDeltaMatchesScratch(t *testing.T) {
	const n = 200
	sizes := []struct {
		name string
		k    int
	}{
		{"one", 1}, {"seven", 7}, {"tenpct", n / 10}, {"halfpct", n / 2},
	}
	tiers := []struct {
		name    string
		persist bool
	}{
		{"memory", false}, {"paged", true},
	}
	base := appendCSVRows(n, 11)
	for _, tier := range tiers {
		for _, size := range sizes {
			t.Run(tier.name+"/"+size.name, func(t *testing.T) {
				extra := make([]string, size.k)
				rng := rand.New(rand.NewSource(int64(size.k)))
				for i := range extra {
					city := fmt.Sprintf("c%d", rng.Intn(9))
					extra[i] = fmt.Sprintf("%d,%s,z-%s,g%d", n+i, city, city, rng.Intn(4))
				}
				body := csvOf(extra)

				cfg := func(dir string) Config {
					c := Config{Workers: 1}
					if tier.persist {
						c.Store = openStore(t, dir)
					}
					return c
				}
				tasks := []string{"mine-fds", "rank-fds", "decompose", "partition"}

				// Lineage server: register, mine (seeds state), append, re-mine.
				s1, ts1 := newTestServer(t, cfg(t.TempDir()))
				var ds Dataset
				if code, b := doJSON(t, "POST", ts1.URL+"/v1/datasets?name=lin", csvOf(base), &ds); code != http.StatusCreated {
					t.Fatalf("register: %d %s", code, b)
				}
				registered, _ := s1.reg.Get(ds.ID)
				assertStorage(t, registered, tier.persist)
				for _, task := range tasks {
					mineResult(t, ts1, ds.ID, task)
				}
				var after Dataset
				if code, b := doJSON(t, "POST", ts1.URL+"/v1/datasets/"+ds.ID+"/append", body, &after); code != http.StatusOK {
					t.Fatalf("append: %d %s", code, b)
				}
				if after.Epoch != 1 || after.ID != ds.ID || after.Hash == ds.Hash {
					t.Fatalf("append identity: epoch=%d id=%s hash-same=%v", after.Epoch, after.ID, after.Hash == ds.Hash)
				}
				appended, _ := s1.reg.Get(ds.ID)
				assertStorage(t, appended, tier.persist)

				// Scratch server: one registration of the concatenated
				// contents, under the same name (decompose's S1 and S2 carry it).
				_, ts2 := newTestServer(t, cfg(t.TempDir()))
				var fresh Dataset
				concat := csvOf(append(append([]string{}, base...), extra...))
				if code, b := doJSON(t, "POST", ts2.URL+"/v1/datasets?name=lin", concat, &fresh); code != http.StatusCreated {
					t.Fatalf("register concat: %d %s", code, b)
				}

				for _, task := range tasks {
					// Every FD re-mine resumes the previous epoch's state: one
					// more delta re-mine on the histogram, or — only for
					// mine-fds past fd.DeltaMaxFraction of the data; rank-fds
					// and decompose then resume the state mine-fds left — one
					// more "oversized" fallback, and never anything else.
					// partition keeps no state, so it is a scratch run that
					// moves neither.
					before := scrapeMetrics(t, ts1.URL)
					got := mineResult(t, ts1, ds.ID, task)
					after := scrapeMetrics(t, ts1.URL)
					moved := func(name string) float64 { return metricValue(t, after, name) - metricValue(t, before, name) }
					wantDelta, wantOversized := 1.0, 0.0
					switch {
					case task == "partition":
						wantDelta = 0
					case task == "mine-fds" && float64(size.k) > fd.DeltaMaxFraction*float64(n+size.k):
						wantDelta, wantOversized = 0, 1
					}
					if d := moved("structmine_append_delta_remine_seconds_count"); d != wantDelta {
						t.Errorf("%s: %g delta re-mines observed, want %g", task, d, wantDelta)
					}
					for _, reason := range obs.DeltaFallbackReasons {
						want := 0.0
						if reason == obs.FallbackOversized {
							want = wantOversized
						}
						if d := moved(`structmine_append_delta_fallback_total{reason="` + reason + `"}`); d != want {
							t.Errorf("%s: %g %s fallbacks counted, want %g", task, d, reason, want)
						}
					}
					want := mineResult(t, ts2, fresh.ID, task)
					if !bytes.Equal(got, want) {
						t.Errorf("%s artifact diverges after append:\n got %s\nwant %s", task, got, want)
					}
				}
			})
		}
	}
}

// TestAppendEpochInvalidatesCache pins the cache behavior around an
// append: the post-append resubmission is a miss (re-mined), while the
// pre-append artifact stays addressable.
func TestAppendEpochInvalidatesCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	var ds Dataset
	if code, b := doJSON(t, "POST", ts.URL+"/v1/datasets?name=ep", csvOf(appendCSVRows(60, 3)), &ds); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, b)
	}
	mineResult(t, ts, ds.ID, "mine-fds")
	missesBefore := s.CacheStats().Misses

	if code, b := doJSON(t, "POST", ts.URL+"/v1/datasets/"+ds.ID+"/append",
		csvOf([]string{"900,c1,z-c1,g0"}), nil); code != http.StatusOK {
		t.Fatalf("append: %d %s", code, b)
	}
	var v JobView
	if code, b := doJSON(t, "POST", ts.URL+"/v1/jobs",
		submitRequest{Dataset: ds.ID, Task: "mine-fds"}, &v); code != http.StatusAccepted {
		t.Fatalf("resubmit after append should miss the cache: %d %s", code, b)
	}
	if v.CacheHit {
		t.Fatal("post-append job must not be a cache hit")
	}
	waitJob(t, ts, v.ID)
	if got := s.CacheStats().Misses; got <= missesBefore {
		t.Fatalf("cache misses did not advance across the append: %d -> %d", missesBefore, got)
	}
}

// TestAppendCrashRecovery simulates a crash in the append window: the
// intent record is durably written but the process dies before the new
// state is published. The restarted server must apply
// the append exactly once; a second restart must not double-apply it.
func TestAppendCrashRecovery(t *testing.T) {
	t.Run("paged", func(t *testing.T) {
		dir := t.TempDir()
		cfg := Config{Workers: 1, Store: openStore(t, dir)}
		s1 := New(cfg)
		ts1 := httptest.NewServer(s1.Handler())
		base := appendCSVRows(80, 9)
		var ds Dataset
		if code, b := doJSON(t, "POST", ts1.URL+"/v1/datasets?name=crash", csvOf(base), &ds); code != http.StatusCreated {
			t.Fatalf("register: %d %s", code, b)
		}
		ts1.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s1.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}

		// Crash window: the record exists, nothing else moved.
		extra := []string{"800,c2,z-c2,g1", "801,c5,z-c5,g3"}
		body := csvOf(extra)
		newHash := appendHash(ds.Hash, body)
		if err := cfg.Store.PutAppendRecord(store.AppendRecord{
			ID: ds.ID, Name: ds.Name, Source: ds.Source,
			OldHash: ds.Hash, NewHash: newHash, Epoch: ds.Epoch + 1,
			Bytes: ds.Bytes + int64(len(body)), Rows: body,
		}); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Store.Close(); err != nil {
			t.Fatal(err)
		}

		assertRecovered := func(life int) {
			t.Helper()
			cfg2 := cfg
			cfg2.Store = openStore(t, dir)
			s := New(cfg2)
			ts := httptest.NewServer(s.Handler())
			var got Dataset
			if code, b := doJSON(t, "GET", ts.URL+"/v1/datasets/"+ds.ID, nil, &got); code != http.StatusOK {
				t.Fatalf("life %d: get: %d %s", life, code, b)
			}
			if got.Epoch != ds.Epoch+1 || got.Hash != newHash {
				t.Fatalf("life %d: epoch=%d hash=%s, want epoch=%d hash=%s",
					life, got.Epoch, got.Hash, ds.Epoch+1, newHash)
			}
			if got.Summary == nil || got.Summary.Tuples != 80+len(extra) {
				t.Fatalf("life %d: tuples=%v, want %d (appended rows lost or doubled)",
					life, got.Summary, 80+len(extra))
			}
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			if err := cfg2.Store.Close(); err != nil {
				t.Fatal(err)
			}
		}
		assertRecovered(1) // replay applies the append exactly once
		assertRecovered(2) // a second restart must not re-apply it
	})
}

// TestAppendContracts pins the append endpoint's error envelopes and
// the /v1-only policy for post-versioning routes.
func TestAppendContracts(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	do := func(name, method, path string, body any, wantStatus int) {
		t.Helper()
		code, raw := doJSON(t, method, ts.URL+path, body, nil)
		if code != wantStatus {
			t.Fatalf("%s: %s %s = %d, want %d (%s)", name, method, path, code, wantStatus, raw)
		}
		checkGolden(t, name, raw)
	}

	var ds Dataset
	if code, b := doJSON(t, "POST", ts.URL+"/v1/datasets?name=toy", []byte(contractCSV), &ds); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, b)
	}

	do("append_ok.json", "POST", "/v1/datasets/"+ds.ID+"/append",
		[]byte("EmpNo,Name,Dept,City\n5,Ada,Eng,Boston\n"), http.StatusOK)
	do("err_append_not_found.json", "POST", "/v1/datasets/nope/append",
		[]byte(contractCSV), http.StatusNotFound)
	do("err_append_shape.json", "POST", "/v1/datasets/"+ds.ID+"/append",
		[]byte("A,B\n1,2\n"), http.StatusBadRequest)

	// The shape error is tier-independent: a paged dataset, whose body is
	// checked against the file's schema, answers with the same bytes.
	_, paged := newTestServer(t, Config{Workers: 1, Store: openStoreClosed(t, t.TempDir())})
	var pds Dataset
	if code, b := doJSON(t, "POST", paged.URL+"/v1/datasets?name=toy", []byte(contractCSV), &pds); code != http.StatusCreated || pds.Storage != StoragePaged {
		t.Fatalf("paged register: %d %s", code, b)
	}
	code, raw := doJSON(t, "POST", paged.URL+"/v1/datasets/"+pds.ID+"/append", []byte("A,B\n1,2\n"), nil)
	if code != http.StatusBadRequest {
		t.Fatalf("paged shape mismatch = %d, want 400 (%s)", code, raw)
	}
	checkGolden(t, "err_append_shape.json", raw)

	// The route exists under /v1 only: the bare path is the mux's 404.
	if code, _ := doJSON(t, "POST", ts.URL+"/datasets/"+ds.ID+"/append",
		[]byte("EmpNo,Name,Dept,City\n7,Kim,Eng,Oslo\n"), nil); code != http.StatusNotFound {
		t.Fatalf("bare /datasets/{id}/append = %d, want 404", code)
	}
}

// gatedColumns blocks the job that reads it — on its first N() — until
// released, so a test can hold a pool worker for as long as it needs.
type gatedColumns struct {
	relation.Columns
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gatedColumns) N() int {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return g.Columns.N()
}

// TestAppendKeepsPinnedTableMapped: an append replaces and unlinks a
// paged dataset's file while a job admitted before it is still queued.
// The job pinned the old table at submit, so it must finish — with the
// pre-append artifact — rather than read a table the append unmapped;
// the last release after the append then closes the old table.
func TestAppendKeepsPinnedTableMapped(t *testing.T) {
	base := appendCSVRows(300, 3)
	st := openStoreClosed(t, t.TempDir())
	s, ts := newTestServer(t, Config{Store: st, Workers: 1})
	var ds Dataset
	if code, b := doJSON(t, "POST", ts.URL+"/v1/datasets?name=pin", csvOf(base), &ds); code != http.StatusCreated || ds.Storage != StoragePaged {
		t.Fatalf("register: %d %s", code, b)
	}
	old, _ := s.reg.Get(ds.ID)

	_, ref := newTestServer(t, Config{})
	var refDS Dataset
	if code, b := doJSON(t, "POST", ref.URL+"/v1/datasets?name=pin", csvOf(base), &refDS); code != http.StatusCreated {
		t.Fatalf("reference register: %d %s", code, b)
	}
	want := mineResult(t, ref, refDS.ID, "mine-fds")

	// The blocker holds the only worker.
	gate := &gatedColumns{
		Columns: relation.AsColumns(relation.NewBuilder("gate", []string{"A"}).Relation()),
		entered: make(chan struct{}), release: make(chan struct{}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	blocker := &Job{
		id: "blocker", task: "describe", key: "blocker", cols: gate, release: func() {},
		state: StateQueued, submitted: time.Now(), ctx: ctx, cancel: cancel, done: make(chan struct{}),
	}
	q := s.jobs
	q.mu.Lock()
	q.jobs[blocker.id] = blocker
	q.order = append(q.order, blocker.id)
	q.high = append(q.high, blocker)
	q.cond.Signal()
	q.mu.Unlock()
	<-gate.entered

	var queued JobView
	if code, b := doJSON(t, "POST", ts.URL+"/v1/jobs", submitRequest{Dataset: ds.ID, Task: "mine-fds"}, &queued); code != http.StatusAccepted {
		t.Fatalf("submit behind the blocker: %d %s", code, b)
	}
	var after Dataset
	body := csvOf([]string{"900,c1,z-other,g0"}) // breaks city → zip: the post-append artifact differs
	if code, b := doJSON(t, "POST", ts.URL+"/v1/datasets/"+ds.ID+"/append", body, &after); code != http.StatusOK || after.Epoch != 1 {
		t.Fatalf("append: %d %s", code, b)
	}
	close(gate.release)

	if got := waitJob(t, ts, queued.ID); got.State != StateDone {
		t.Fatalf("job pinned before the append: state %s (%s)", got.State, got.Error)
	}
	var res struct {
		Result json.RawMessage `json:"result"`
	}
	if code, b := doJSON(t, "GET", ts.URL+"/v1/jobs/"+queued.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result: %d %s", code, b)
	}
	if !bytes.Equal(res.Result, want) {
		t.Fatalf("pinned job's artifact is not the pre-append one:\n got %s\nwant %s", res.Result, want)
	}
	if now := mineResult(t, ts, ds.ID, "mine-fds"); bytes.Equal(now, want) {
		t.Fatal("post-append mine-fds returned the pre-append artifact")
	}
	q.mu.Lock()
	held := q.jobs[queued.ID].cols
	q.mu.Unlock()
	if held != nil {
		t.Fatal("the finished job's record still holds the Columns value it read")
	}
	old.handle.mu.Lock()
	defer old.handle.mu.Unlock()
	if old.handle.table != nil || old.handle.refs != 0 {
		t.Fatalf("old table still open after its last reader left (refs=%d)", old.handle.refs)
	}
}

// TestSubmitRacingAppend: submissions race appends to a paged dataset.
// Lookup and pin are one registry step, so a job reads whichever epoch
// its submission resolved: every job finishes done with the artifact of
// one of the epochs the dataset passed through (recomputed serially on a
// fresh server from the same bodies) — never a failure to open a file an
// append has already replaced and unlinked.
func TestSubmitRacingAppend(t *testing.T) {
	const baseRows, step, epochs = 200, 8, 7
	rows := appendCSVRows(baseRows+step*epochs, 11)
	body := func(epoch int) []byte { return csvOf(rows[baseRows+(epoch-1)*step : baseRows+epoch*step]) }
	tasks := []string{"describe", "mine-fds"}
	compact := func(raw []byte) string { // artifacts compare without the response's indentation
		var buf bytes.Buffer
		if err := json.Compact(&buf, raw); err != nil {
			t.Fatalf("artifact %q: %v", raw, err)
		}
		return buf.String()
	}

	_, ref := newTestServer(t, Config{})
	var refDS Dataset
	if code, b := doJSON(t, "POST", ref.URL+"/v1/datasets?name=race", csvOf(rows[:baseRows]), &refDS); code != http.StatusCreated {
		t.Fatalf("reference register: %d %s", code, b)
	}
	want := map[string]map[string]int{} // task → artifact → the epoch it belongs to
	for epoch := 0; epoch <= epochs; epoch++ {
		if epoch > 0 {
			if code, b := doJSON(t, "POST", ref.URL+"/v1/datasets/"+refDS.ID+"/append", body(epoch), nil); code != http.StatusOK {
				t.Fatalf("reference append %d: %d %s", epoch, code, b)
			}
		}
		for _, tn := range tasks {
			if want[tn] == nil {
				want[tn] = map[string]int{}
			}
			want[tn][compact(mineResult(t, ref, refDS.ID, tn))] = epoch
		}
	}

	st := openStoreClosed(t, t.TempDir())
	s, ts := newTestServer(t, Config{Store: st, Workers: 2, QueueDepth: 1 << 12, MaxJobs: 1 << 16})
	var ds Dataset
	if code, b := doJSON(t, "POST", ts.URL+"/v1/datasets?name=race", csvOf(rows[:baseRows]), &ds); code != http.StatusCreated || ds.Storage != StoragePaged {
		t.Fatalf("register: %d %s", code, b)
	}

	// The deterministic half: resolve, let an append retire the table,
	// then read. The pin holds the epoch-0 table mapped through the unlink.
	pinned, cols, release, err := s.reg.Pin(ds.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.reg.AppendCSV(ds.ID, body(1)); err != nil {
		t.Fatal(err)
	}
	res, err := task.RunColumns(context.Background(), cols, "describe", task.Params{})
	release()
	if err != nil {
		t.Fatalf("reading the table pinned before the append: %v", err)
	}
	raw, _ := json.Marshal(res)
	if epoch, ok := want["describe"][string(raw)]; !ok || epoch != 0 || pinned.Epoch != 0 {
		t.Fatalf("pin taken at epoch %d read %s, want the epoch-0 artifact", pinned.Epoch, raw)
	}

	// The racing half: one appender, several submitters, until the appends run out.
	type submitted struct{ id, task string }
	var mu sync.Mutex
	var jobs []submitted
	appended := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, last := 0, false; !last; i++ {
				select {
				case <-appended:
					last = true // one more submission, against the final epoch
				default:
				}
				tn := tasks[(g+i)%len(tasks)]
				var v JobView
				code, b := doJSON(t, "POST", ts.URL+"/v1/jobs", submitRequest{Dataset: ds.ID, Task: tn}, nil)
				switch code {
				case http.StatusOK, http.StatusAccepted:
					if err := json.Unmarshal([]byte(b), &v); err != nil {
						t.Errorf("submit %s: %s: %v", tn, b, err)
						return
					}
					mu.Lock()
					jobs = append(jobs, submitted{v.ID, tn})
					mu.Unlock()
				case http.StatusTooManyRequests: // refused by admission: allowed
				default:
					t.Errorf("submit %s racing an append: %d %s", tn, code, b)
					return
				}
			}
		}(g)
	}
	for epoch := 2; epoch <= epochs; epoch++ {
		if code, b := doJSON(t, "POST", ts.URL+"/v1/datasets/"+ds.ID+"/append", body(epoch), nil); code != http.StatusOK {
			t.Errorf("append %d: %d %s", epoch, code, b)
		}
	}
	close(appended)
	wg.Wait()

	seen := map[int]bool{}
	for _, j := range jobs {
		if v := waitJob(t, ts, j.id); v.State != StateDone {
			t.Fatalf("%s job %s submitted during appends: %s (%s)", j.task, j.id, v.State, v.Error)
		}
		got := jobArtifact(t, ts, j.id)
		epoch, ok := want[j.task][compact([]byte(got))]
		if !ok {
			t.Fatalf("%s job %s: artifact belongs to no epoch the dataset passed through:\n%s", j.task, j.id, got)
		}
		seen[epoch] = true
	}
	t.Logf("%d jobs raced %d appends and read epochs %v", len(jobs), epochs-1, seen)
	if len(jobs) < 8 || !seen[epochs] {
		t.Fatalf("%d jobs over epochs %v: the race did not happen or never reached the final epoch", len(jobs), seen)
	}
}

// TestReferenceBeforeOpenSurvivesAppend: Pin takes its reference under
// the registry lock, and the job reads the table only after it. An
// append that lands in that window must leave the referenced table
// mapped for the reads that follow, and the last release closes it.
func TestReferenceBeforeOpenSurvivesAppend(t *testing.T) {
	st := openStoreClosed(t, t.TempDir())
	s, _ := newTestServer(t, Config{Store: st})
	ds, _, err := s.reg.RegisterCSV("small", "test", csvOf(appendCSVRows(40, 3)))
	if err != nil {
		t.Fatal(err)
	}
	_, cols, release, err := s.reg.Pin(ds.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.reg.AppendCSV(ds.ID, csvOf([]string{"900,c1,z-c1,g0"})); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ds.colPath); !os.IsNotExist(err) {
		t.Fatalf("the pre-append file is still linked (%v)", err)
	}
	if cols.N() != 40 {
		t.Errorf("the referenced table has %d rows, want the pre-append 40", cols.N())
	}
	if _, err := task.RunColumns(context.Background(), cols, "describe", task.Params{}); err != nil {
		t.Errorf("reading the table referenced before the append: %v", err)
	}
	release()
	h := ds.handle
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.table != nil || h.refs != 0 {
		t.Fatalf("table still open with no holder (refs=%d)", h.refs)
	}
}

// TestDatasetIntermediatesEpochRule: an FD state saved under a NEWER
// epoch than the job's pin is never served to it (an append landed while
// the job queued: that state covers rows the job is not mining); one
// from the pinned or an older epoch is — the delta-resume case — as the
// JSON it was saved as (the memory tier keeps it indented). The slot is
// the dataset's: another dataset's id finds nothing.
func TestDatasetIntermediatesEpochRule(t *testing.T) {
	cache := NewCache(0)
	const state = `{"N":3}`
	datasetIntermediates{cache: cache, id: "ds", epoch: 3}.SaveFDState([]byte(state))
	for _, tc := range []struct {
		pin  int
		want bool
	}{{2, false}, {3, true}, {4, true}} {
		data, ok := datasetIntermediates{cache: cache, id: "ds", epoch: tc.pin}.LoadFDState()
		var compact bytes.Buffer
		if ok && json.Compact(&compact, data) != nil {
			t.Fatalf("state served as %q, not JSON", data)
		}
		if ok != tc.want || (ok && compact.String() != state) {
			t.Errorf("job pinned at epoch %d over state from epoch 3: got %q, %v; want served=%v", tc.pin, data, ok, tc.want)
		}
	}
	if _, ok := (datasetIntermediates{cache: cache, id: "other", epoch: 3}).LoadFDState(); ok {
		t.Error("another dataset's state was served")
	}
}

// TestPagedHandleConcurrentPins: readers pin and unpin the table from
// several goroutines while the dataset's own reference is dropped (an
// append) and the file unlinked. Every successful pin reads a mapped
// table, and the last one out closes it.
func TestPagedHandleConcurrentPins(t *testing.T) {
	st := openStoreClosed(t, t.TempDir())
	s, _ := newTestServer(t, Config{Store: st})
	ds, _, err := s.reg.RegisterCSV("pins", "test", csvOf(appendCSVRows(200, 5)))
	if err != nil || ds.Storage != StoragePaged {
		t.Fatalf("register: %+v, %v", ds, err)
	}
	h := ds.handle
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst [][]int32
			for i := 0; i < 200; i++ {
				tbl := h.pin()
				if tbl == nil {
					return // closed and unlinked: nothing left to pin
				}
				var err error
				if dst, err = tbl.ReadStripe(0, []int{0}, dst); err != nil {
					t.Errorf("read through a pinned table: %v", err)
				}
				h.unpin()
			}
		}()
	}
	h.unpin() // what an append does to the handle it replaces
	if err := os.Remove(ds.colPath); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.table != nil || h.refs != 0 {
		t.Fatalf("table still open with no holder (refs=%d)", h.refs)
	}
}
