package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"structmine/internal/datagen"
	"structmine/internal/relation"
	"structmine/internal/task"
)

func db2CSV(t *testing.T) []byte {
	t.Helper()
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := datagen.InjectExactDuplicates(db.Joined, 2, 7).Dirty.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any, out any) (int, string) {
	t.Helper()
	var rd *bytes.Reader
	if raw, ok := body.([]byte); ok {
		rd = bytes.NewReader(raw)
	} else if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := body.([]byte); ok {
		req.Header.Set("Content-Type", "text/csv")
	} else if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw.String(), err)
		}
	}
	return resp.StatusCode, raw.String()
}

func registerDB2(t *testing.T, ts *httptest.Server) Dataset {
	t.Helper()
	var ds Dataset
	code, body := doJSON(t, "POST", ts.URL+"/v1/datasets?name=db2", db2CSV(t), &ds)
	if code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	return ds
}

func waitJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var v JobView
		code, body := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, nil, &v)
		if code != http.StatusOK {
			t.Fatalf("get job: %d %s", code, body)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobView{}
}

// TestEndToEndFlow covers the whole lifecycle: register → submit → poll
// → result, then a repeat submission served from the artifact cache.
func TestEndToEndFlow(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	ds := registerDB2(t, ts)
	if ds.Summary == nil || ds.Summary.Tuples == 0 {
		t.Fatal("dataset summary should be resident after registration")
	}

	// Re-registering identical content is idempotent (200, same id).
	var again Dataset
	code, _ := doJSON(t, "POST", ts.URL+"/v1/datasets?name=db2", db2CSV(t), &again)
	if code != http.StatusOK || again.ID != ds.ID {
		t.Fatalf("re-register: code %d id %s, want 200 id %s", code, again.ID, ds.ID)
	}

	submit := func() (JobView, int) {
		var v JobView
		code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
			submitRequest{Dataset: ds.ID, Task: "rank-fds"}, &v)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submit: %d %s", code, body)
		}
		return v, code
	}

	first, code := submit()
	if code != http.StatusAccepted || first.CacheHit {
		t.Fatalf("first submission should be 202 and uncached, got %d hit=%t", code, first.CacheHit)
	}
	done := waitJob(t, ts, first.ID)
	if done.State != StateDone {
		t.Fatalf("job state %s (%s), want done", done.State, done.Error)
	}

	var res struct {
		Job    JobView            `json:"job"`
		Result task.RankFDsResult `json:"result"`
	}
	code, body := doJSON(t, "GET", ts.URL+"/v1/jobs/"+first.ID+"/result", nil, &res)
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, body)
	}
	if len(res.Result.Ranked) == 0 {
		t.Fatal("rank-fds over DB2 sample should rank dependencies")
	}

	// Identical repeated query: answered from the cache, no re-mining.
	second, code := submit()
	if code != http.StatusOK || !second.CacheHit || second.State != StateDone {
		t.Fatalf("repeat should be an instant cache hit, got code %d %+v", code, second)
	}
	if hits := s.CacheStats().Hits; hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}

	// Different parameters miss the cache.
	var third JobView
	code, _ = doJSON(t, "POST", ts.URL+"/v1/jobs",
		submitRequest{Dataset: ds.ID, Task: "rank-fds", Params: task.Params{Psi: task.F(0.9)}}, &third)
	if code != http.StatusAccepted || third.CacheHit {
		t.Fatalf("changed psi should miss the cache: %d %+v", code, third)
	}
	waitJob(t, ts, third.ID)
}

func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	ds := registerDB2(t, ts)

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"dataset 404", "GET", "/v1/datasets/nope", nil, http.StatusNotFound},
		{"job 404", "GET", "/v1/jobs/nope", nil, http.StatusNotFound},
		{"result 404", "GET", "/v1/jobs/nope/result", nil, http.StatusNotFound},
		{"cancel 404", "POST", "/v1/jobs/nope/cancel", nil, http.StatusNotFound},
		{"bad register", "POST", "/v1/datasets", map[string]string{}, http.StatusBadRequest},
		{"bad submit", "POST", "/v1/jobs", map[string]string{}, http.StatusBadRequest},
		{"unknown task", "POST", "/v1/jobs", submitRequest{Dataset: ds.ID, Task: "frobnicate"}, http.StatusBadRequest},
		{"joins rejected", "POST", "/v1/jobs", submitRequest{Dataset: ds.ID, Task: "joins"}, http.StatusBadRequest},
		{"unknown dataset", "POST", "/v1/jobs", submitRequest{Dataset: "nope", Task: "describe"}, http.StatusNotFound},
		// /v1 is the only surface: the pre-versioning bare paths are gone.
		{"bare healthz", "GET", "/healthz", nil, http.StatusNotFound},
	}
	for _, c := range cases {
		code, body := doJSON(t, c.method, ts.URL+c.path, c.body, nil)
		if code != c.want {
			t.Errorf("%s: %d %s, want %d", c.name, code, body, c.want)
		}
	}

	// Malformed CSV upload is a line-numbered 400.
	code, body := doJSON(t, "POST", ts.URL+"/v1/datasets", []byte("A,B,A\n1,2,3\n"), nil)
	if code != http.StatusBadRequest || !strings.Contains(body, "duplicate attribute") {
		t.Errorf("duplicate-header upload: %d %s", code, body)
	}

	// Result of a still-unfinished job is 409 (submit against a fresh
	// dataset so the artifact cache cannot satisfy it instantly).
	var v JobView
	doJSON(t, "POST", ts.URL+"/v1/jobs", submitRequest{Dataset: ds.ID, Task: "report"}, &v)
	code, _ = doJSON(t, "GET", ts.URL+"/v1/jobs/"+v.ID+"/result", nil, nil)
	if code != http.StatusOK && code != http.StatusConflict {
		t.Errorf("unfinished result: %d", code)
	}
}

// TestConcurrentClients hammers one server with parallel submissions of
// a mixed workload from many clients; run under -race this exercises
// registry, runner and cache synchronization.
func TestConcurrentClients(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 256})
	ds := registerDB2(t, ts)

	tasks := []string{"describe", "dedup", "mine-fds", "values", "describe", "dedup"}
	const clients = 12
	var wg sync.WaitGroup
	ids := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var v JobView
			code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
				submitRequest{Dataset: ds.ID, Task: tasks[i%len(tasks)]}, &v)
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("client %d: %d %s", i, code, body)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id == "" {
			continue
		}
		v := waitJob(t, ts, id)
		if v.State != StateDone {
			t.Errorf("job %s: %s (%s)", id, v.State, v.Error)
		}
	}
	// The racing duplicates above may all have missed, each submitted
	// before its twin finished; one submitted now cannot.
	doJSON(t, "POST", ts.URL+"/v1/jobs", submitRequest{Dataset: ds.ID, Task: tasks[0]}, nil)
	stats := s.CacheStats()
	if stats.Hits == 0 {
		t.Error("duplicate submissions should produce cache hits")
	}
	if stats.Entries == 0 {
		t.Error("completed jobs should populate the cache")
	}
}

// TestGracefulShutdownDrain submits jobs, starts a drain, and checks
// that accepted jobs complete while new submissions are rejected.
func TestGracefulShutdownDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	ds := registerDB2(t, ts)

	var accepted []JobView
	for _, name := range []string{"rank-fds", "report", "dedup"} {
		var v JobView
		code, body := doJSON(t, "POST", ts.URL+"/v1/jobs", submitRequest{Dataset: ds.ID, Task: name}, &v)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %s", name, code, body)
		}
		accepted = append(accepted, v)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Every accepted job reached a successful terminal state.
	for _, v := range accepted {
		got, ok := s.jobs.Get(v.ID)
		if !ok || got.State != StateDone {
			t.Errorf("job %s after drain: %+v", v.ID, got)
		}
	}

	// New work is rejected while the HTTP surface stays up.
	code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", submitRequest{Dataset: ds.ID, Task: "describe"}, nil)
	if code != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: %d, want 503", code)
	}
	code, _ = doJSON(t, "POST", ts.URL+"/v1/datasets?name=x", []byte("A,B\n1,2\n"), nil)
	if code != http.StatusServiceUnavailable {
		t.Errorf("post-drain register: %d, want 503", code)
	}
	var h healthz
	code, _ = doJSON(t, "GET", ts.URL+"/v1/healthz", nil, &h)
	if code != http.StatusOK || !h.Draining {
		t.Errorf("healthz during drain: %d draining=%t", code, h.Draining)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	// A single worker with a backlog of distinct-psi rank-fds jobs keeps
	// the tail of the queue waiting long enough to cancel it.
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 16})
	ds := registerDB2(t, ts)

	var jobs []JobView
	for i := 0; i < 6; i++ {
		var v JobView
		code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
			submitRequest{Dataset: ds.ID, Task: "rank-fds", Params: task.Params{Psi: task.F(0.2 + float64(i)/50)}}, &v)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, code, body)
		}
		jobs = append(jobs, v)
	}
	last := jobs[len(jobs)-1]
	var canceled JobView
	code, body := doJSON(t, "POST", ts.URL+"/v1/jobs/"+last.ID+"/cancel", nil, &canceled)
	if code != http.StatusOK {
		t.Fatalf("cancel: %d %s", code, body)
	}
	if canceled.State != StateCanceled {
		t.Skipf("worker drained the whole queue before the cancel arrived (state %s)", canceled.State)
	}
	if v := waitJob(t, ts, last.ID); v.State != StateCanceled {
		t.Errorf("canceled job state = %s, want canceled", v.State)
	}
	if v := waitJob(t, ts, jobs[0].ID); v.State != StateDone {
		t.Errorf("first job should still complete, got %s (%s)", v.State, v.Error)
	}
}

// TestCancelRunningMVDJob cancels a running mine-mvds job — minutes of
// candidate scans on a 1 000 × 13 DBLP sample — and expects it to end
// canceled promptly with its worker-budget grant released.
func TestCancelRunningMVDJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var csv bytes.Buffer
	r := datagen.NewDBLP(datagen.DBLPConfig{Tuples: 1000, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28})
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	var ds Dataset
	if code, body := doJSON(t, "POST", ts.URL+"/v1/datasets?name=dblp", csv.Bytes(), &ds); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	var v JobView
	if code, body := doJSON(t, "POST", ts.URL+"/v1/jobs", submitRequest{Dataset: ds.ID, Task: "mine-mvds"}, &v); code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	for v.State != StateRunning {
		time.Sleep(10 * time.Millisecond)
		doJSON(t, "GET", ts.URL+"/v1/jobs/"+v.ID, nil, &v)
		if v.State.Terminal() {
			t.Fatalf("job ended %s before the cancel", v.State)
		}
	}
	time.Sleep(200 * time.Millisecond) // into the candidate loop
	canceled := time.Now()
	if code, body := doJSON(t, "POST", ts.URL+"/v1/jobs/"+v.ID+"/cancel", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel: %d %s", code, body)
	}
	if got := waitJob(t, ts, v.ID); got.State != StateCanceled {
		t.Fatalf("job state %s (%s), want canceled", got.State, got.Error)
	}
	if d := time.Since(canceled); d > 5*time.Second {
		t.Errorf("job took %v to stop after the cancel", d)
	}
	if n := metricValue(t, scrapeMetrics(t, ts.URL), "structmine_exec_active_grants"); n != 0 {
		t.Errorf("%v worker-budget grants still held after the cancel", n)
	}
}

func TestJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobTimeout: time.Nanosecond})
	ds := registerDB2(t, ts)
	var v JobView
	code, body := doJSON(t, "POST", ts.URL+"/v1/jobs", submitRequest{Dataset: ds.ID, Task: "rank-fds"}, &v)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	got := waitJob(t, ts, v.ID)
	if got.State != StateFailed || !strings.Contains(got.Error, "timeout") {
		t.Errorf("timed-out job: %+v", got)
	}
}

func TestUploadLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:        1,
		Limits:         relation.Limits{MaxRows: 3, MaxFields: 4},
		MaxUploadBytes: 128,
	})
	code, body := doJSON(t, "POST", ts.URL+"/v1/datasets?name=rows", []byte("A,B\n1,2\n3,4\n5,6\n7,8\n"), nil)
	if code != http.StatusBadRequest || !strings.Contains(body, "row limit") {
		t.Errorf("row limit: %d %s", code, body)
	}
	code, body = doJSON(t, "POST", ts.URL+"/v1/datasets?name=wide", []byte("A,B,C,D,E\n1,2,3,4,5\n"), nil)
	if code != http.StatusBadRequest || !strings.Contains(body, "limit is 4") {
		t.Errorf("field limit: %d %s", code, body)
	}
	big := []byte("A,B\n" + strings.Repeat("x,y\n", 200))
	code, _ = doJSON(t, "POST", ts.URL+"/v1/datasets?name=big", big, nil)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload: %d, want 413", code)
	}
}

func TestQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Joined.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	ds, _, err := s.Registry().RegisterCSV("db2", "test", buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Saturate: one running, one queued, then overflow. Distinct psi
	// values dodge the artifact cache.
	sawFull := false
	for i := 0; i < 8 && !sawFull; i++ {
		_, err := s.jobs.SubmitAs(DefaultTenant, PriorityInteractive, ds.ID, "rank-fds", task.Params{Psi: task.F(0.1 + float64(i)/100)})
		if err != nil {
			if !strings.Contains(err.Error(), "queue is full") {
				t.Fatalf("unexpected submit error: %v", err)
			}
			sawFull = true
		}
	}
	if !sawFull {
		t.Skip("queue never filled (fast machine); covered elsewhere")
	}
}

func TestHealthzAndTasks(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var h healthz
	code, _ := doJSON(t, "GET", ts.URL+"/v1/healthz", nil, &h)
	if code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: %d %+v", code, h)
	}
	var infos []struct {
		Name     string `json:"name"`
		Runnable bool   `json:"runnable"`
	}
	code, _ = doJSON(t, "GET", ts.URL+"/v1/tasks", nil, &infos)
	if code != http.StatusOK {
		t.Fatalf("tasks: %d", code)
	}
	if len(infos) != len(task.Specs) {
		t.Fatalf("tasks lists %d entries, want %d", len(infos), len(task.Specs))
	}
	for _, info := range infos {
		if info.Name == "joins" && info.Runnable {
			t.Error("joins must not be runnable as a job")
		}
	}
}

func TestRegisterByPath(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	path := dir + "/sample.csv"
	if err := writeFile(path, "A,B\n1,2\n3,4\n"); err != nil {
		t.Fatal(err)
	}
	var ds Dataset
	code, body := doJSON(t, "POST", ts.URL+"/v1/datasets",
		registerRequest{Path: path}, &ds)
	if code != http.StatusCreated {
		t.Fatalf("register by path: %d %s", code, body)
	}
	if ds.Name != "sample.csv" || ds.Summary.Tuples != 2 {
		t.Errorf("dataset: %+v", ds)
	}

	// Relative paths are rooted at the data directory.
	var rel Dataset
	code, body = doJSON(t, "POST", ts.URL+"/v1/datasets", registerRequest{Path: "sample.csv"}, &rel)
	if code != http.StatusOK || rel.ID != ds.ID {
		t.Errorf("relative path: %d %s, want 200 with id %s", code, body, ds.ID)
	}

	// EvalSymlinks fails on a missing file → the path never reaches the
	// registry.
	code, _ = doJSON(t, "POST", ts.URL+"/v1/datasets", registerRequest{Path: dir + "/missing.csv"}, nil)
	if code != http.StatusForbidden {
		t.Errorf("missing path: %d, want 403", code)
	}
}

// TestRegisterByPathConfined checks the exfiltration guard: path
// registration is off without -data-dir, and a configured data
// directory cannot be escaped with absolute paths, ../, or symlinks.
func TestRegisterByPathConfined(t *testing.T) {
	outside := t.TempDir()
	secret := outside + "/secret.csv"
	if err := writeFile(secret, "A,B\n1,2\n"); err != nil {
		t.Fatal(err)
	}

	// Default server: no data directory, path registration disabled.
	_, ts := newTestServer(t, Config{Workers: 1})
	code, body := doJSON(t, "POST", ts.URL+"/v1/datasets", registerRequest{Path: secret}, nil)
	if code != http.StatusForbidden || !strings.Contains(body, "disabled") {
		t.Errorf("no data-dir: %d %s, want 403 disabled", code, body)
	}

	dir := t.TempDir()
	if err := os.Symlink(secret, dir+"/link.csv"); err != nil {
		t.Fatal(err)
	}
	_, ts = newTestServer(t, Config{Workers: 1, DataDir: dir})
	for name, path := range map[string]string{
		"absolute escape": secret,
		"dotdot escape":   dir + "/../" + filepath.Base(outside) + "/secret.csv",
		"relative dotdot": "../" + filepath.Base(outside) + "/secret.csv",
		"symlink escape":  dir + "/link.csv",
	} {
		code, body := doJSON(t, "POST", ts.URL+"/v1/datasets", registerRequest{Path: path}, nil)
		if code != http.StatusForbidden {
			t.Errorf("%s (%s): %d %s, want 403", name, path, code, body)
		}
	}
}

// TestBoundedState covers the three retention knobs that keep a
// long-running daemon's memory bounded: the dataset cap, terminal-job
// retention, and LRU artifact-cache eviction.
func TestBoundedState(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxDatasets: 1, MaxJobs: 2, CacheEntries: 2})
	ds := registerDB2(t, ts)

	// Registry at capacity: identical content is still idempotent, new
	// content is refused with 429.
	code, _ := doJSON(t, "POST", ts.URL+"/v1/datasets?name=db2", db2CSV(t), nil)
	if code != http.StatusOK {
		t.Errorf("re-register at cap: %d, want 200", code)
	}
	code, body := doJSON(t, "POST", ts.URL+"/v1/datasets?name=other", []byte("A,B\n1,2\n"), nil)
	if code != http.StatusTooManyRequests || !strings.Contains(body, "dataset limit") {
		t.Errorf("register beyond cap: %d %s, want 429", code, body)
	}

	// Run more jobs than MaxJobs retains; each must finish before the
	// next submit so every record is terminal and evictable.
	var ids []string
	for _, params := range []float64{0.3, 0.4, 0.5, 0.6} {
		var v JobView
		code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
			submitRequest{Dataset: ds.ID, Task: "rank-fds", Params: task.Params{Psi: task.F(params)}}, &v)
		if code != http.StatusAccepted {
			t.Fatalf("submit psi=%v: %d %s", params, code, body)
		}
		waitJob(t, ts, v.ID)
		ids = append(ids, v.ID)
	}
	if n := s.jobs.Len(); n > 2 {
		t.Errorf("retained job records = %d, want ≤ 2", n)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+ids[0], nil, nil); code != http.StatusNotFound {
		t.Errorf("oldest job should be forgotten: %d, want 404", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+ids[len(ids)-1], nil, nil); code != http.StatusOK {
		t.Errorf("newest job should survive retention: %d, want 200", code)
	}

	// Four distinct artifacts through a 2-entry cache: LRU keeps it at 2.
	if stats := s.CacheStats(); stats.Entries > 2 {
		t.Errorf("cache entries = %d, want ≤ 2", stats.Entries)
	}
	// The most recent artifact is still a hit, the first was evicted.
	var v JobView
	doJSON(t, "POST", ts.URL+"/v1/jobs",
		submitRequest{Dataset: ds.ID, Task: "rank-fds", Params: task.Params{Psi: task.F(0.6)}}, &v)
	if !v.CacheHit {
		t.Error("most recent artifact should still be cached")
	}
	doJSON(t, "POST", ts.URL+"/v1/jobs",
		submitRequest{Dataset: ds.ID, Task: "rank-fds", Params: task.Params{Psi: task.F(0.3)}}, &v)
	if v.CacheHit {
		t.Error("oldest artifact should have been evicted")
	}
	waitJob(t, ts, v.ID)
}

func TestCacheLRU(t *testing.T) {
	c := NewCache(2)
	c.Put("a", json.RawMessage("1"))
	c.Put("b", json.RawMessage("2"))
	if v, ok := c.Get("a"); !ok || string(v) != "1" { // refresh a: b is now least recent
		t.Fatalf("a should be cached as the bytes that were put, got %q", v)
	}
	c.Put("c", json.RawMessage("3"))
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted as least recently used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a was refreshed and should survive")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c is newest and should survive")
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
}

// nanColumns serves a NaN marginal, so describe computes a result JSON
// cannot express.
type nanColumns struct{ relation.Columns }

func (nanColumns) Marginal(int) (relation.AttrMarginal, error) {
	return relation.AttrMarginal{EntropyBits: math.NaN()}, nil
}

// TestUnencodableResultFailsJob: the artifact is encoded when its job
// finishes, so a result with no JSON encoding fails the job, typed, and
// nothing reaches the cache.
func TestUnencodableResultFailsJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	job := &Job{
		id: "nan", task: "describe", key: "nan", release: func() {},
		cols:  nanColumns{relation.AsColumns(relation.NewBuilder("nan", []string{"A"}).Relation())},
		state: StateQueued, submitted: time.Now(), ctx: ctx, cancel: cancel, done: make(chan struct{}),
	}
	q := s.jobs
	q.mu.Lock()
	q.jobs[job.id] = job
	q.order = append(q.order, job.id)
	q.high = append(q.high, job)
	q.cond.Signal()
	q.mu.Unlock()

	got := waitJob(t, ts, job.id)
	if got.State != StateFailed || !strings.Contains(got.Error, ErrResultEncoding.Error()) {
		t.Fatalf("job = %s (%q), want failed with %q", got.State, got.Error, ErrResultEncoding)
	}
	if _, ok := s.cache.Peek(job.key); ok {
		t.Error("an unencodable result reached the cache")
	}
	code, body := doJSON(t, "GET", ts.URL+"/v1/jobs/"+job.id+"/result", nil, nil)
	if code != http.StatusConflict || !strings.Contains(body, `"result": null`) {
		t.Errorf("result of the failed job: %d %s", code, body)
	}
}

// TestRegistryIdentity checks that dataset identity is the full content
// hash: Get accepts both forms, and a short-id prefix collision extends
// the new alias instead of silently resolving to the other dataset.
func TestRegistryIdentity(t *testing.T) {
	g := NewRegistry(relation.Limits{}, 0)
	ds, created, err := g.RegisterCSV("x", "test", []byte("A,B\n1,2\n"))
	if err != nil || !created {
		t.Fatalf("register: %v created=%t", err, created)
	}
	if len(ds.Hash) != 64 || ds.ID != ds.Hash[:shortIDLen] {
		t.Fatalf("identity: id=%s hash=%s", ds.ID, ds.Hash)
	}
	for _, key := range []string{ds.ID, ds.Hash} {
		if got, ok := g.Get(key); !ok || got != ds {
			t.Errorf("Get(%s) = %v, %t", key, got, ok)
		}
	}

	// Simulate a 48-bit prefix collision: a resident alias with the same
	// 12-char prefix but a different full hash must not be returned for
	// the new content — the new id extends until unambiguous.
	other := ds.Hash[:shortIDLen] + strings.Repeat("0", 64-shortIDLen)
	g.mu.Lock()
	delete(g.byHash, ds.Hash) // forget ds so its content re-registers
	delete(g.alias, ds.ID)
	g.alias[other[:shortIDLen]] = other // the collider now owns the 12-char prefix
	g.byHash[other] = &Dataset{ID: other[:shortIDLen], Hash: other}
	id := g.assignIDLocked(ds.Hash)
	g.mu.Unlock()
	if id == other[:shortIDLen] {
		t.Fatal("colliding prefix must not be reused")
	}
	if !strings.HasPrefix(ds.Hash, id) || len(id) <= shortIDLen {
		t.Errorf("extended id %s should be a longer prefix of %s", id, ds.Hash)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestReadBodyAllocatesTheBodyOnce: with its Content-Length declared, a
// 2.5 MB upload costs readBody less than 1.5× the body in allocations —
// reading into a buffer grown by doubling costs several times the body —
// and a body over the limit is still a 413. The allocation bound is
// checked in a plain build only (raceEnabled).
func TestReadBodyAllocatesTheBodyOnce(t *testing.T) {
	body := bytes.Repeat([]byte("a,b\n"), 2500*1000/4)
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ { // the least of three: other goroutines allocate too
		r := httptest.NewRequest("POST", "/v1/datasets", bytes.NewReader(body))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, ok := readBody(httptest.NewRecorder(), r, int64(len(body)), "upload")
		runtime.ReadMemStats(&after)
		if !ok || !bytes.Equal(got, body) {
			t.Fatalf("readBody: ok=%v, %d of %d bytes", ok, len(got), len(body))
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if bound := uint64(len(body)) * 3 / 2; !raceEnabled && least >= bound {
		t.Fatalf("readBody allocated %d bytes for a %d-byte body, want < %d", least, len(body), bound)
	}
	w := httptest.NewRecorder()
	r := httptest.NewRequest("POST", "/v1/datasets", bytes.NewReader(body))
	if _, ok := readBody(w, r, int64(len(body))-1, "upload"); ok || w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("a body over the limit: ok=%v, status %d", ok, w.Code)
	}
}
