package server

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"structmine/internal/task"
)

// summaryJob submits one job, waits for it, and returns its artifact and
// the names of its trace's stages.
func summaryJob(t *testing.T, ts *httptest.Server, ds, taskName string, p task.Params) (string, []string) {
	t.Helper()
	var v JobView
	code, body := doJSON(t, "POST", ts.URL+"/v1/jobs", submitRequest{Dataset: ds, Task: taskName, Params: p}, &v)
	if code != http.StatusAccepted || v.CacheHit {
		t.Fatalf("submit %s: %d, cache_hit %t — a first question must run: %s", taskName, code, v.CacheHit, body)
	}
	if got := waitJob(t, ts, v.ID); got.State != StateDone {
		t.Fatalf("%s: job state = %s (%s)", taskName, got.State, got.Error)
	}
	var tr jobTrace
	if code, body := doJSON(t, "GET", ts.URL+"/v1/jobs/"+v.ID+"/trace", nil, &tr); code != http.StatusOK {
		t.Fatalf("trace %s: %d %s", taskName, code, body)
	}
	var stages []string
	for _, st := range tr.Trace.Stages {
		stages = append(stages, st.Name)
	}
	return jobArtifact(t, ts, v.ID), stages
}

func summaryOutcomes(t *testing.T, ts *httptest.Server) (built, reused float64) {
	t.Helper()
	scrape := scrapeMetrics(t, ts.URL)
	return metricValue(t, scrape, `structmine_tuple_summary_total{outcome="built"}`),
		metricValue(t, scrape, `structmine_tuple_summary_total{outcome="reused"}`)
}

// TestTupleSummaryAcrossJobs: on a daemon the Phase 1 tuple summary one
// job builds serves the next job of the dataset epoch — through the
// memory tier, and across a restart through the disk tier — while the
// later job still runs (202, cache_hit false), says so in its stage
// list, returns the bytes a daemon that never held a summary returns,
// and leaves the artifact cache's hit/miss counters to the questions
// asked. After an append the held summary is refused; the kind is not a
// task.
func TestTupleSummaryAcrossJobs(t *testing.T) {
	const reusedStage = "tuple clustering (summary reused)"
	has := slices.Contains[[]string]
	double := task.Params{Double: true}

	// The reference: dedup on a daemon that never ran anything else.
	_, fresh := newTestServer(t, Config{Workers: 1})
	want, stages := summaryJob(t, fresh, registerDB2(t, fresh).ID, "dedup", task.Params{})
	if !has(stages, "tuple clustering") || has(stages, reusedStage) {
		t.Fatalf("a first dedup's stages: %v", stages)
	}

	dir := t.TempDir()
	for _, tier := range []string{"memory", "disk"} {
		cfg := Config{Workers: 1}
		if tier == "disk" {
			cfg.Store = openStoreClosed(t, dir)
		}
		s, ts := newTestServer(t, cfg)
		ds := registerDB2(t, ts)
		built0, reused0 := summaryOutcomes(t, ts)

		summaryJob(t, ts, ds.ID, "group-attrs", double) // double clustering at φT = 0 leaves the summary
		got, stages := summaryJob(t, ts, ds.ID, "dedup", task.Params{})
		if got != want {
			t.Fatalf("%s: dedup over a reused summary:\n got %s\nwant %s", tier, got, want)
		}
		if !has(stages, reusedStage) {
			t.Fatalf("%s: dedup's stages do not say the summary was reused: %v", tier, stages)
		}
		if built, reused := summaryOutcomes(t, ts); built != built0+1 || reused != reused0+1 {
			t.Fatalf("%s: built %v → %v, reused %v → %v; want one each", tier, built0, built, reused0, reused)
		}
		// Two questions asked, both missed; the summary lookups count nowhere.
		if st := s.CacheStats(); st.Hits != 0 || st.Misses != 2 {
			t.Fatalf("%s: artifact cache counted %d hits, %d misses after two first questions", tier, st.Hits, st.Misses)
		}
		if code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
			submitRequest{Dataset: ds.ID, Task: task.KindTupleSummary}, nil); code != http.StatusBadRequest {
			t.Fatalf("%s: submitting the cache kind as a task: %d %s", tier, code, body)
		}

		if tier == "disk" {
			// A successor over the same directory reads the summary its
			// predecessor spilled: a dedup it has not answered before
			// (another min_sim) runs, and builds no tree.
			_, ts2 := newTestServer(t, Config{Workers: 1, Store: cfg.Store})
			_, stages := summaryJob(t, ts2, ds.ID, "dedup", task.Params{MinSim: task.F(0.9)})
			if !has(stages, reusedStage) {
				t.Fatalf("after a restart dedup's stages do not say the summary was reused: %v", stages)
			}
		}

		// An append bumps the epoch: the summary held was built over fewer
		// rows, and the job builds its own.
		if code, b := doJSON(t, "POST", ts.URL+"/v1/datasets/"+ds.ID+"/append", db2CSV(t), nil); code != http.StatusOK {
			t.Fatalf("%s: append: %d %s", tier, code, b)
		}
		built1, reused1 := summaryOutcomes(t, ts)
		if _, stages := summaryJob(t, ts, ds.ID, "dedup", task.Params{}); has(stages, reusedStage) {
			t.Fatalf("%s: dedup after an append reused the previous epoch's summary: %v", tier, stages)
		}
		if built, reused := summaryOutcomes(t, ts); built != built1+1 || reused != reused1 {
			t.Fatalf("%s: after an append built %v → %v, reused %v → %v; want a build", tier, built1, built, reused1, reused)
		}
	}
}
