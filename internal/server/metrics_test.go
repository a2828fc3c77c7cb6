package server

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"

	"structmine/internal/obs"
)

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /v1/metrics Content-Type = %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricsLineRE matches one Prometheus text-exposition sample line.
// Label values are quoted strings with backslash escapes and may contain
// braces (route patterns like "GET /v1/jobs/{id}/trace").
var metricsLineRE = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*",?)*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// checkExposition validates every non-comment line of a scrape and
// returns the set of metric families seen in sample lines.
func checkExposition(t *testing.T, body string) map[string]bool {
	t.Helper()
	families := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !metricsLineRE.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		families[name] = true
	}
	return families
}

// TestMetricsEndpoint runs a real job, then asserts the scrape is valid
// Prometheus text and carries every series the acceptance criteria name:
// request latency, queue depth, cache hits/misses, AIB merges, and the
// LIMBO DCF-tree gauge.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	ds := registerDB2(t, ts)

	// rank-fds exercises the AIB engine; partition exercises LIMBO.
	for _, tn := range []string{"rank-fds", "partition"} {
		var v JobView
		code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
			submitRequest{Dataset: ds.ID, Task: tn}, &v)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submit %s: %d %s", tn, code, body)
		}
		if got := waitJob(t, ts, v.ID); got.State != StateDone {
			t.Fatalf("%s job state = %s (%s)", tn, got.State, got.Error)
		}
	}
	// A repeated submission is a cache hit.
	var v JobView
	if code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
		submitRequest{Dataset: ds.ID, Task: "rank-fds"}, &v); code != http.StatusOK {
		t.Fatalf("cached submit: %d %s", code, body)
	}

	scrape := scrapeMetrics(t, ts.URL)
	families := checkExposition(t, scrape)

	required := []string{
		"structmined_http_requests_total",
		"structmined_http_request_seconds_bucket",
		"structmined_http_request_seconds_sum",
		"structmined_http_request_seconds_count",
		"structmined_jobs",
		"structmined_jobs_queue_depth",
		"structmined_cache_hits_total",
		"structmined_cache_misses_total",
		"structmined_cache_entries",
		"structmined_datasets",
		"structmined_dataset_resident_bytes",
		"structmine_aib_merges_total",
		"structmine_limbo_dcf_tree_nodes",
		"structmine_limbo_dcf_tree_height",
		"structmine_limbo_assign_objects_total",
		"structmine_limbo_assign_terms_total",
		"structmine_tane_levels",
		"structmine_tane_products_total",
		"structmine_tane_product_elements_total",
		"structmine_tane_shared_partitions_total",
		"structmine_append_delta_remine_seconds_count",
		"structmine_append_delta_fallback_total",
		"structmine_stage_seconds_bucket",
		"structmine_exec_arena_retained_bytes",
		"structmine_exec_arena_mapped_bytes_total",
		"structmine_go_gc_cpu_seconds_total",
		"structmine_go_heap_allocs_bytes_total",
	}
	for _, name := range required {
		if !families[name] {
			t.Errorf("scrape is missing %s", name)
		}
	}

	// The jobs ran, so the engine counters must have moved and the cache
	// must record exactly one hit.
	for _, want := range []string{
		`structmined_cache_hits_total 1`,
		`structmined_jobs{state="done"} 3`,
		`structmined_datasets 1`,
		fmt.Sprintf("structmined_dataset_resident_bytes %d", ds.Bytes),
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape is missing line %q", want)
		}
	}
	// The jobs ran under grants, so the pooled arenas hold slabs; the
	// mapped part is off the Go heap (zero in race builds, which keep
	// heap slabs), and the runtime's own counters have moved.
	retained := metricValue(t, scrape, "structmine_exec_arena_retained_bytes")
	if mapped := metricValue(t, scrape, "structmine_exec_arena_mapped_bytes_total"); retained <= 0 || mapped > retained {
		t.Errorf("arena slabs: retained %v bytes, mapped %v; want retained > 0 and mapped <= retained", retained, mapped)
	}
	if v := metricValue(t, scrape, "structmine_go_heap_allocs_bytes_total"); v <= 0 {
		t.Errorf("structmine_go_heap_allocs_bytes_total = %v, want > 0", v)
	}
	if v := metricValue(t, scrape, "structmine_go_gc_cpu_seconds_total"); v < 0 {
		t.Errorf("structmine_go_gc_cpu_seconds_total = %v, want >= 0", v)
	}
	if !regexp.MustCompile(`structmined_http_requests_total\{route="POST /v1/jobs"\} [1-9]`).MatchString(scrape) {
		t.Error("scrape has no request count for POST /v1/jobs")
	}
	// The delta fallback counter is a closed set of five reasons, all
	// exposed before the first fallback.
	for _, reason := range obs.DeltaFallbackReasons {
		metricValue(t, scrape, `structmine_append_delta_fallback_total{reason="`+reason+`"}`)
	}
	if n := strings.Count(scrape, "structmine_append_delta_fallback_total{reason="); n != 5 {
		t.Errorf("fallback counter has %d reason labels, want no_state, corrupt_state, shape, oversized, fd_broken", n)
	}
	if n := strings.Count(scrape, "structmined_http_requests_total{route="); n != 13 {
		t.Errorf("request counter has %d route labels, want the 13 /v1 routes", n)
	}
}

// TestMetricsConcurrentScrape hammers /metrics from 12 goroutines while
// jobs churn through the pool; under -race this proves scrape-time reads
// of live state do not race the writers.
func TestMetricsConcurrentScrape(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	ds := registerDB2(t, ts)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	tasks := []string{"describe", "mine-fds", "values", "partition", "rank-fds", "dedup"}
	ids := make([]string, 0, len(tasks))
	for _, tn := range tasks {
		var v JobView
		code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
			submitRequest{Dataset: ds.ID, Task: tn}, &v)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submit %s: %d %s", tn, code, body)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		waitJob(t, ts, id)
	}
	close(stop)
	wg.Wait()

	checkExposition(t, scrapeMetrics(t, ts.URL))
}

// TestJobTrace checks the per-stage timing surface end to end: a
// finished rank-fds job reports its pipeline stages in execution order
// with monotonic start offsets, a running/unknown job yields 409/404,
// and a cache-hit job reports an empty (not null) stage list.
func TestJobTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	ds := registerDB2(t, ts)

	var v JobView
	code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
		submitRequest{Dataset: ds.ID, Task: "rank-fds"}, &v)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	if got := waitJob(t, ts, v.ID); got.State != StateDone {
		t.Fatalf("job state = %s (%s)", got.State, got.Error)
	}

	var tr jobTrace
	if code, body := doJSON(t, "GET", ts.URL+"/v1/jobs/"+v.ID+"/trace", nil, &tr); code != http.StatusOK {
		t.Fatalf("get trace: %d %s", code, body)
	}
	if tr.Job.ID != v.ID || tr.Job.State != StateDone {
		t.Fatalf("trace job view = %+v", tr.Job)
	}
	if len(tr.Trace.Stages) == 0 {
		t.Fatal("finished job has no trace stages")
	}

	// The rank-fds pipeline stages must appear in execution order.
	wantOrder := []string{"dependency mining", "value clustering", "attribute grouping", "ranking"}
	next := 0
	for _, st := range tr.Trace.Stages {
		if next < len(wantOrder) && st.Name == wantOrder[next] {
			next++
		}
	}
	if next != len(wantOrder) {
		got := make([]string, len(tr.Trace.Stages))
		for i, st := range tr.Trace.Stages {
			got[i] = st.Name
		}
		t.Fatalf("stages %v do not contain %v in order", got, wantOrder)
	}

	prev := -1.0
	var last obs.StageTiming
	for _, st := range tr.Trace.Stages {
		if st.StartMS < prev {
			t.Fatalf("stage %q starts at %.3fms, before previous stage at %.3fms", st.Name, st.StartMS, prev)
		}
		if st.DurationMS < 0 {
			t.Fatalf("stage %q has negative duration %.3fms", st.Name, st.DurationMS)
		}
		prev = st.StartMS
		last = st
	}
	if tr.Trace.TotalMS < last.StartMS+last.DurationMS-0.001 {
		t.Fatalf("total %.3fms is less than the last stage's end %.3fms",
			tr.Trace.TotalMS, last.StartMS+last.DurationMS)
	}

	// Unknown job → 404.
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/nope/trace", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown job trace: %d, want 404", code)
	}

	// Cache-hit resubmission: done instantly, trace is an empty array.
	var hit JobView
	if code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
		submitRequest{Dataset: ds.ID, Task: "rank-fds"}, &hit); code != http.StatusOK {
		t.Fatalf("cached submit: %d %s", code, body)
	}
	var raw struct {
		Trace struct {
			Stages []obs.StageTiming `json:"stages"`
		} `json:"trace"`
	}
	code, body = doJSON(t, "GET", ts.URL+"/v1/jobs/"+hit.ID+"/trace", nil, &raw)
	if code != http.StatusOK {
		t.Fatalf("cached trace: %d %s", code, body)
	}
	if raw.Trace.Stages == nil {
		t.Fatalf("cache-hit trace stages should be [] not null: %s", body)
	}
	if len(raw.Trace.Stages) != 0 {
		t.Fatalf("cache-hit job has %d stages, want 0", len(raw.Trace.Stages))
	}
}

// TestPprofGate checks that the profiling surface exists only when
// Config.EnablePprof is set (the daemon's -pprof flag).
func TestPprofGate(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled: GET /debug/pprof/ = %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled: GET /debug/pprof/ = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index does not list profiles:\n%.200s", body)
	}
}

// TestJobTraceNotTerminal pins the 409 path: a queued job has no trace
// yet. A one-worker server busy with a slow job keeps the second job
// queued long enough to observe it.
func TestJobTraceNotTerminal(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	ds := registerDB2(t, ts)

	// Occupy the only worker, then queue a second job behind it.
	var first, second JobView
	if code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
		submitRequest{Dataset: ds.ID, Task: "rank-fds"}, &first); code != http.StatusAccepted {
		t.Fatalf("submit first: %d %s", code, body)
	}
	if code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
		submitRequest{Dataset: ds.ID, Task: "mine-fds"}, &second); code != http.StatusAccepted {
		t.Fatalf("submit second: %d %s", code, body)
	}

	code, body := doJSON(t, "GET", ts.URL+"/v1/jobs/"+second.ID+"/trace", nil, nil)
	if code != http.StatusConflict {
		// The queue may already have drained on a fast machine; only the
		// still-pending case is asserted.
		if v, _ := s.jobs.Get(second.ID); !v.State.Terminal() {
			t.Fatalf("trace of pending job: %d %s, want 409", code, body)
		}
	}
	waitJob(t, ts, first.ID)
	waitJob(t, ts, second.ID)
}
