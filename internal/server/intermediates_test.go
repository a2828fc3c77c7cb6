package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"structmine/internal/task"
)

// firstJob submits a question the daemon has not answered yet, waits for
// it, and returns its artifact.
func firstJob(t *testing.T, ts *httptest.Server, ds, taskName string, p task.Params) string {
	t.Helper()
	var v JobView
	code, body := doJSON(t, "POST", ts.URL+"/v1/jobs", submitRequest{Dataset: ds, Task: taskName, Params: p}, &v)
	if code != http.StatusAccepted || v.CacheHit {
		t.Fatalf("submit %s: %d, cache_hit %t — a first question must run: %s", taskName, code, v.CacheHit, body)
	}
	if got := waitJob(t, ts, v.ID); got.State != StateDone {
		t.Fatalf("%s: job state = %s (%s)", taskName, got.State, got.Error)
	}
	return jobArtifact(t, ts, v.ID)
}

// appendDB2 appends the DB2 rows again and returns the dataset after it.
func appendDB2(t *testing.T, ts *httptest.Server, ds string) Dataset {
	t.Helper()
	var next Dataset
	if code, body := doJSON(t, "POST", ts.URL+"/v1/datasets/"+ds+"/append", db2CSV(t), &next); code != http.StatusOK {
		t.Fatalf("append: %d %s", code, body)
	}
	return next
}

// TestDedupAfterOtherJobs: Phase 1 lives inside one job, so whatever
// other jobs left in a dataset's intermediates, dedup returns the bytes
// of a daemon that never ran anything but dedup — after a
// double-clustered group-attrs, after an append, and on the disk tier
// after a restart over a -persist directory that still holds the
// tuple-summary entry an older build wrote. Two first questions count
// two artifact-cache misses and no hit, and "tuple-summary" is no task.
func TestDedupAfterOtherJobs(t *testing.T) {
	_, ref := newTestServer(t, Config{Workers: 1})
	refDS := registerDB2(t, ref).ID
	want := firstJob(t, ref, refDS, "dedup", task.Params{})
	appendDB2(t, ref, refDS)
	wantAppended := firstJob(t, ref, refDS, "dedup", task.Params{})
	wantRestarted := firstJob(t, ref, refDS, "dedup", task.Params{MinSim: task.F(0.9)})

	for _, tier := range []string{"memory", "disk"} {
		var dir string
		cfg := Config{Workers: 1}
		if tier == "disk" {
			dir = t.TempDir()
			cfg.Store = openStore(t, dir)
		}
		s := New(cfg)
		ts := httptest.NewServer(s.Handler())
		ds := registerDB2(t, ts).ID

		firstJob(t, ts, ds, "group-attrs", task.Params{Double: true})
		if got := firstJob(t, ts, ds, "dedup", task.Params{}); got != want {
			t.Fatalf("%s: dedup after group-attrs -double:\n got %s\nwant %s", tier, got, want)
		}
		if st := s.CacheStats(); st.Hits != 0 || st.Misses != 2 {
			t.Fatalf("%s: artifact cache counted %d hits, %d misses after two first questions", tier, st.Hits, st.Misses)
		}
		if code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
			submitRequest{Dataset: ds, Task: "tuple-summary"}, nil); code != http.StatusBadRequest {
			t.Fatalf("%s: submitting the old cache kind as a task: %d %s", tier, code, body)
		}
		next := appendDB2(t, ts, ds)
		if got := firstJob(t, ts, ds, "dedup", task.Params{}); got != wantAppended {
			t.Fatalf("%s: dedup after an append:\n got %s\nwant %s", tier, got, wantAppended)
		}

		if tier == "disk" {
			// An older build kept the Phase 1 tuple summary beside the FD
			// state, in an entry of the same shape.
			old, _ := json.Marshal(intermediateEntry{Epoch: next.Epoch, Data: []byte("SMTS\x02\x00 an older build's summary")})
			key := ds + "|tuple-summary|phit=0|phiv=0|psi=0|k=0|eps=0|maxlhs=0|minsim=0|double=false|mincont=0"
			if err := cfg.Store.PutArtifact(key, old); err != nil {
				t.Fatal(err)
			}
		}
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := s.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if tier == "memory" {
			continue
		}
		if err := cfg.Store.Close(); err != nil {
			t.Fatal(err)
		}

		_, ts2 := newTestServer(t, Config{Workers: 1, Store: openStoreClosed(t, dir)})
		if got := firstJob(t, ts2, ds, "dedup", task.Params{MinSim: task.F(0.9)}); got != wantRestarted {
			t.Fatalf("dedup after a restart over an older build's tuple summary:\n got %s\nwant %s", got, wantRestarted)
		}
	}
}
