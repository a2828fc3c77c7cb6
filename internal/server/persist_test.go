package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
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
// answer polls for the old job id, and answer the identical resubmission
// as a cache hit without re-running the miner. The artifact is the same
// bytes wherever it is served from: the first run, a memory hit, the
// recovered pre-restart job and a disk-promoted hit. A datasets/
// directory left by a pre-.col build is neither read nor touched.
func TestServerWarmRestart(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "datasets", "x.snap")
	if err := os.MkdirAll(filepath.Dir(legacy), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacy, []byte("SMSN left by an older build"), 0o644); err != nil {
		t.Fatal(err)
	}

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
	first := jobArtifact(t, ts1, v.ID)
	var memHit JobView
	if code, body := doJSON(t, "POST", ts1.URL+"/v1/jobs",
		submitRequest{Dataset: ds.ID, Task: "rank-fds"}, &memHit); code != http.StatusOK || !memHit.CacheHit {
		t.Fatalf("resubmit before the restart: %d %s", code, body)
	}
	if got := jobArtifact(t, ts1, memHit.ID); got != first {
		t.Fatalf("memory hit serves different bytes than the run that produced them:\n%s\n--- first run\n%s", got, first)
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

	// Its artifact is served from the durable tier, the same bytes.
	if got := jobArtifact(t, ts2, v.ID); got != first {
		t.Fatalf("recovered job's artifact differs from the pre-restart result:\n%s\n--- first run\n%s", got, first)
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
	if got := jobArtifact(t, ts2, hit.ID); got != first {
		t.Fatalf("disk-promoted hit serves different bytes than the first run:\n%s\n--- first run\n%s", got, first)
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

	// Two boots later the pre-.col file is where it was, as it was.
	if data, err := os.ReadFile(legacy); err != nil || string(data) != "SMSN left by an older build" {
		t.Fatalf("datasets/x.snap after two boots: %q, %v; want it untouched", data, err)
	}
	if q := dirNames(t, filepath.Join(dir, "quarantine")); len(q) != 0 {
		t.Fatalf("quarantine holds %v; nothing under datasets/ may be moved there", q)
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

// colstoreFS records every path removed through it and, when failing
// is set, fails every listing of the colstore directory.
type colstoreFS struct {
	store.FS
	failing bool
	mu      sync.Mutex
	removed []string
}

func (f *colstoreFS) ReadDir(dir string) ([]string, error) {
	if f.failing && filepath.Base(dir) == "colstore" {
		return nil, errors.New("injected ReadDir failure")
	}
	return f.FS.ReadDir(dir)
}

func (f *colstoreFS) Remove(path string) error {
	f.mu.Lock()
	f.removed = append(f.removed, path)
	f.mu.Unlock()
	return f.FS.Remove(path)
}

// TestRecoverColstoreThroughStoreFS: the boot sweep of the colstore
// directory lists and deletes through the store's FS. A listing that
// fails still boots, with nothing adopted and nothing deleted; the next
// boot removes the leftover temp file through the FS and adopts the
// dataset.
func TestRecoverColstoreThroughStoreFS(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	s1 := New(Config{Store: st1})
	ds, _, err := s1.reg.RegisterCSV("pins", "test", csvOf(appendCSVRows(200, 5)))
	if err != nil || ds.Storage != StoragePaged {
		t.Fatalf("register: %+v, %v", ds, err)
	}
	_ = s1.Shutdown(context.Background())
	st1.Close()
	leftover := filepath.Join(filepath.Dir(ds.colPath), store.TempPrefix+"torn.col")
	if err := os.WriteFile(leftover, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	boot := func(fsys *colstoreFS) (datasets, adopted int, sweepErr error) {
		st, err := store.Open(dir, store.Options{FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		s := New(Config{Store: st})
		defer func() { _ = s.Shutdown(context.Background()) }()
		adopted, _ = s.reg.Recovered()
		return s.reg.Len(), adopted, s.reg.RecoverErr()
	}

	if n, adopted, err := boot(&colstoreFS{FS: store.OS(), failing: true}); n != 0 || adopted != 0 {
		t.Fatalf("boot with a failing listing: %d datasets, %d adopted, want none", n, adopted)
	} else if err == nil || !strings.Contains(err.Error(), "injected ReadDir failure") {
		t.Fatalf("boot with a failing listing reports %v, want the listing's error", err)
	}
	if _, err := os.Stat(leftover); err != nil {
		t.Fatalf("leftover temp file after a failed listing: %v", err)
	}

	fsys := &colstoreFS{FS: store.OS()}
	if n, adopted, err := boot(fsys); n != 1 || adopted != 1 || err != nil {
		t.Fatalf("boot: %d datasets, %d adopted (%v), want 1", n, adopted, err)
	}
	if _, err := os.Stat(leftover); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("leftover temp file after boot: %v", err)
	}
	if !slices.Contains(fsys.removed, leftover) {
		t.Fatalf("the leftover was not removed through the store's FS; removed %v", fsys.removed)
	}
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

	submitted := make(chan Snapshot, 1)
	go func() {
		v, err := s2.jobs.SubmitAs(DefaultTenant, PriorityInteractive, ds.ID, "describe", task.Params{})
		if err != nil {
			t.Errorf("submit: %v", err)
		}
		submitted <- v
	}()
	<-gate.entered // the submission is now inside the disk read

	answered := make(chan struct{})
	go func() {
		s2.jobs.Page("", 0)
		s2.jobs.QueueDepth()
		if _, err := s2.jobs.SubmitAs(DefaultTenant, PriorityInteractive, "no-such-dataset", "describe", task.Params{}); err == nil {
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
	if v, _ := viewOf(s2, (<-submitted).ID); !v.CacheHit || v.State != StateDone {
		t.Fatalf("submission after the slow read: %+v, want a done cache hit", v)
	}
}
