package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"structmine/internal/store"
	"structmine/internal/task"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServerWarmRestart is the crash-recovery contract end to end: a
// persistent server is registered and queried, torn down, and rebuilt
// over the same data directory. The successor must list the dataset,
// answer polls for the old job id, serve the old artifact byte-for-byte,
// and answer the identical resubmission as a cache hit without
// re-running the miner.
func TestServerWarmRestart(t *testing.T) {
	dir := t.TempDir()

	st1 := openStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st1})
	ts1 := httptest.NewServer(s1.Handler())

	var ds Dataset
	if code, body := doJSON(t, "POST", ts1.URL+"/v1/datasets?name=db2", db2CSV(t), &ds); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	var v JobView
	if code, body := doJSON(t, "POST", ts1.URL+"/v1/jobs",
		submitRequest{Dataset: ds.ID, Task: "rank-fds"}, &v); code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	if got := waitJob(t, ts1, v.ID); got.State != StateDone {
		t.Fatalf("job state = %s (%s)", got.State, got.Error)
	}
	var before struct {
		Result any `json:"result"`
	}
	if code, body := doJSON(t, "GET", ts1.URL+"/v1/jobs/"+v.ID+"/result", nil, &before); code != http.StatusOK {
		t.Fatalf("result: %d %s", code, body)
	}

	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life over the same directory.
	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := New(Config{Workers: 1, Store: st2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Shutdown(context.Background())

	// The dataset is resident again, same identity.
	var page struct {
		Items []Dataset `json:"items"`
	}
	if code, body := doJSON(t, "GET", ts2.URL+"/v1/datasets", nil, &page); code != http.StatusOK {
		t.Fatalf("list: %d %s", code, body)
	}
	list := page.Items
	if len(list) != 1 || list[0].Hash != ds.Hash || list[0].ID != ds.ID {
		t.Fatalf("recovered datasets = %+v, want id %s hash %s", list, ds.ID, ds.Hash)
	}
	if list[0].Summary == nil || list[0].Summary.Tuples == 0 {
		t.Fatal("recovered dataset has no summary")
	}

	// The pre-restart job id still answers, marked recovered.
	var rec JobView
	if code, body := doJSON(t, "GET", ts2.URL+"/v1/jobs/"+v.ID, nil, &rec); code != http.StatusOK {
		t.Fatalf("get recovered job: %d %s", code, body)
	}
	if rec.State != StateDone || !rec.Recovered || rec.Dataset != ds.ID {
		t.Fatalf("recovered job = %+v", rec)
	}

	// Its artifact is served from the durable tier, identical payload.
	var after struct {
		Result any `json:"result"`
	}
	if code, body := doJSON(t, "GET", ts2.URL+"/v1/jobs/"+v.ID+"/result", nil, &after); code != http.StatusOK {
		t.Fatalf("recovered result: %d %s", code, body)
	}
	if !reflect.DeepEqual(before.Result, after.Result) {
		t.Fatal("recovered artifact differs from the pre-restart result")
	}

	// The identical resubmission is a cache hit — no recompute.
	var hit JobView
	if code, body := doJSON(t, "POST", ts2.URL+"/v1/jobs",
		submitRequest{Dataset: ds.ID, Task: "rank-fds"}, &hit); code != http.StatusOK {
		t.Fatalf("resubmit: %d %s", code, body)
	}
	if !hit.CacheHit {
		t.Fatal("post-restart resubmission should be a cache hit")
	}
	if hit.ID == v.ID {
		t.Fatal("new job reused a recovered job id")
	}

	// healthz reports the recovery; the disk tier answered the lookup.
	var h healthz
	if code, body := doJSON(t, "GET", ts2.URL+"/v1/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}
	if h.Store == nil || h.Store.RecoveredDatasets != 1 || h.Store.RecoveredJobs < 1 {
		t.Fatalf("healthz store stats = %+v", h.Store)
	}
	if h.Cache.DiskHits < 1 {
		t.Fatalf("cache disk hits = %d, want >= 1", h.Cache.DiskHits)
	}

	// The store metric family is exported.
	scrape := scrapeMetrics(t, ts2.URL)
	for _, want := range []string{
		"structmine_store_recovered_datasets 1",
		"structmine_store_append_replays_total 0",
		"structmine_store_journal_appends_total",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape is missing %q", want)
		}
	}
}

// TestRegisterFailsWhenStoreCannotWrite pins durability-before-
// residency: when the dataset file cannot be written, registration
// returns 507 store_write_failed and the dataset does not become
// resident.
func TestRegisterFailsWhenStoreCannotWrite(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	defer st.Close()
	s := New(Config{Workers: 1, Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	// Sabotage the colstore directory: replace it with a plain file so
	// the atomic-write temp file cannot be created.
	datasets := filepath.Join(dir, "colstore")
	if err := os.RemoveAll(datasets); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(datasets, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	code, body := doJSON(t, "POST", ts.URL+"/v1/datasets?name=db2", db2CSV(t), nil)
	if code != http.StatusInsufficientStorage {
		t.Fatalf("register with broken store: %d %s, want 507", code, body)
	}
	var env apiErrorBody
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("error body is not the envelope: %s", body)
	}
	if env.Error.Code != CodeStoreWrite {
		t.Fatalf("error code = %q, want %q", env.Error.Code, CodeStoreWrite)
	}
	if s.reg.Len() != 0 {
		t.Fatal("failed registration left the dataset resident")
	}

	// Restore the directory; the same registration now succeeds.
	if err := os.Remove(datasets); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(datasets, 0o755); err != nil {
		t.Fatal(err)
	}
	if code, body := doJSON(t, "POST", ts.URL+"/v1/datasets?name=db2", db2CSV(t), nil); code != http.StatusCreated {
		t.Fatalf("register after repair: %d %s", code, body)
	}
}

// TestDeprecatedAliases checks the migration contract: every bare path
// serves the same payload as its /v1 twin but carries the
// "Deprecation: true" header, while /v1 responses do not.
func TestDeprecatedAliases(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	registerDB2(t, ts)

	for _, path := range []string{"/healthz", "/tasks", "/datasets", "/jobs"} {
		old, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		oldBody, _ := io.ReadAll(old.Body)
		old.Body.Close()
		if old.Header.Get("Deprecation") != "true" {
			t.Errorf("GET %s: missing Deprecation header", path)
		}

		neu, err := http.Get(ts.URL + "/v1" + path)
		if err != nil {
			t.Fatal(err)
		}
		newBody, _ := io.ReadAll(neu.Body)
		neu.Body.Close()
		if neu.Header.Get("Deprecation") != "" {
			t.Errorf("GET /v1%s: unexpected Deprecation header", path)
		}
		if old.StatusCode != neu.StatusCode || string(oldBody) != string(newBody) {
			t.Errorf("GET %s and /v1%s disagree: %d vs %d", path, path, old.StatusCode, neu.StatusCode)
		}
	}
}

// TestErrorEnvelope pins the error wire shape on representative paths:
// every error is {"error":{"code":...,"message":...}} with the
// documented machine-readable code.
func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	ds := registerDB2(t, ts)

	cases := []struct {
		method, path string
		body         any
		status       int
		code         string
	}{
		{"GET", "/v1/datasets/nope", nil, 404, CodeDatasetNotFound},
		{"GET", "/v1/jobs/nope", nil, 404, CodeJobNotFound},
		{"GET", "/v1/jobs/nope/result", nil, 404, CodeJobNotFound},
		{"POST", "/v1/jobs/nope/cancel", nil, 404, CodeJobNotFound},
		{"POST", "/v1/jobs", submitRequest{Dataset: ds.ID, Task: "no-such-task"}, 400, CodeUnknownTask},
		{"POST", "/v1/jobs", submitRequest{Dataset: ds.ID, Task: "joins"}, 400, CodeTaskNotRunnable},
		{"POST", "/v1/jobs", submitRequest{Dataset: "nope", Task: "describe"}, 404, CodeDatasetNotFound},
		{"POST", "/v1/jobs", submitRequest{Task: "describe"}, 400, CodeBadRequest},
		{"POST", "/v1/datasets", registerRequest{Path: "x.csv"}, 403, CodePathForbidden},
	}
	for _, tc := range cases {
		code, body := doJSON(t, tc.method, ts.URL+tc.path, tc.body, nil)
		if code != tc.status {
			t.Errorf("%s %s: status %d, want %d (%s)", tc.method, tc.path, code, tc.status, body)
			continue
		}
		var env apiErrorBody
		if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error.Code == "" {
			t.Errorf("%s %s: body is not the error envelope: %s", tc.method, tc.path, body)
			continue
		}
		if env.Error.Code != tc.code {
			t.Errorf("%s %s: code %q, want %q", tc.method, tc.path, env.Error.Code, tc.code)
		}
		if env.Error.Message == "" {
			t.Errorf("%s %s: empty error message", tc.method, tc.path)
		}
	}
}

// gatedFS blocks reads of artifact files, once armed, until released —
// a slow disk under the durable cache tier.
type gatedFS struct {
	store.FS
	armed   atomic.Bool
	entered chan struct{} // one send per blocked read
	release chan struct{} // closed to let reads through
}

func (f *gatedFS) ReadFile(path string) ([]byte, error) {
	if f.armed.Load() && strings.Contains(path, "artifacts") {
		f.entered <- struct{}{}
		<-f.release
	}
	return f.FS.ReadFile(path)
}

// TestSubmitDoesNotHoldRunnerLockAcrossDiskRead: a submission whose
// artifact lives only in the durable tier reads and CRC-checks a file.
// That read must happen outside the runner's lock — while it is stuck,
// polls, lists and other submissions keep being answered.
func TestSubmitDoesNotHoldRunnerLockAcrossDiskRead(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	s1, ts1 := newTestServer(t, Config{Workers: 1, Store: st1})
	ds := registerDB2(t, ts1)
	runToDone(t, ts1, ds.ID, "describe") // spills the artifact to disk
	_ = s1.Shutdown(context.Background())
	st1.Close()

	gate := &gatedFS{FS: store.OS(), entered: make(chan struct{}), release: make(chan struct{})}
	st2, err := store.Open(dir, store.Options{FS: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, _ := newTestServer(t, Config{Workers: 1, Store: st2})
	gate.armed.Store(true)

	submitted := make(chan JobView, 1)
	go func() {
		v, err := s2.jobs.Submit(ds.ID, "describe", task.Params{})
		if err != nil {
			t.Errorf("submit: %v", err)
		}
		submitted <- v
	}()
	<-gate.entered // the submission is now inside the disk read

	answered := make(chan struct{})
	go func() {
		s2.jobs.List()
		s2.jobs.QueueDepth()
		if _, err := s2.jobs.Submit("no-such-dataset", "describe", task.Params{}); err == nil {
			t.Error("submit for an unknown dataset succeeded")
		}
		close(answered)
	}()
	select {
	case <-answered:
	case <-time.After(10 * time.Second):
		t.Error("list, queue depth and submit are stuck behind another submission's disk read")
	}
	close(gate.release)
	if v := <-submitted; !v.CacheHit || v.State != StateDone {
		t.Fatalf("submission after the slow read: %+v, want a done cache hit", v)
	}
}
