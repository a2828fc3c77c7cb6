package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"structmine/internal/task"
)

// Three fixed tiny instances whose content hashes pin the pagination
// order (datasets list in hash order).
var pageCSVs = []string{
	"A,B\n1,x\n2,y\n",
	"C,D\n3,p\n4,q\n",
	"E,F\n5,m\n6,n\n",
}

// TestGoldenPagination pins the cursor-paginated list contract: the
// envelope shape, the stable ordering, and that walking pages with the
// returned cursor covers the corpus exactly once.
func TestGoldenPagination(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var ids []string
	for i, csv := range pageCSVs {
		var ds Dataset
		name := string(rune('a' + i))
		if code, body := doJSON(t, "POST", ts.URL+"/v1/datasets?name="+name, []byte(csv), &ds); code != http.StatusCreated {
			t.Fatalf("register %d: %d %s", i, code, body)
		}
		ids = append(ids, ds.ID)
	}
	// Three deterministic describe jobs (cache-miss, then done fast).
	for _, id := range ids {
		var v JobView
		if code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
			submitRequest{Dataset: id, Task: "describe"}, &v); code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submit %s: %d %s", id, code, body)
		}
		waitJob(t, ts, v.ID)
	}

	do := func(name, path string) string {
		t.Helper()
		code, raw := doJSON(t, "GET", ts.URL+path, nil, nil)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, code, raw)
		}
		checkGolden(t, name, raw)
		return raw
	}

	var page struct {
		Items      []json.RawMessage `json:"items"`
		Total      int               `json:"total"`
		NextCursor string            `json:"next_cursor"`
	}

	// Datasets: page of 2, then the cursor-addressed remainder.
	raw := do("dataset_page1.json", "/v1/datasets?limit=2")
	if err := json.Unmarshal([]byte(raw), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Items) != 2 || page.Total != 3 || page.NextCursor == "" {
		t.Fatalf("page1 = %d items, total %d, cursor %q", len(page.Items), page.Total, page.NextCursor)
	}
	raw = do("dataset_page2.json", "/v1/datasets?limit=2&cursor="+page.NextCursor)
	page.NextCursor = "" // omitted on the last page; clear the stale value
	if err := json.Unmarshal([]byte(raw), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Items) != 1 || page.NextCursor != "" {
		t.Fatalf("page2 = %d items, cursor %q, want the final page", len(page.Items), page.NextCursor)
	}

	// Jobs: same walk, id-ordered.
	raw = do("job_page1.json", "/v1/jobs?limit=2")
	if err := json.Unmarshal([]byte(raw), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Items) != 2 || page.Total != 3 || page.NextCursor != "job-000002" {
		t.Fatalf("job page1 = %d items, total %d, cursor %q", len(page.Items), page.Total, page.NextCursor)
	}
	do("job_page2.json", "/v1/jobs?limit=2&cursor="+page.NextCursor)

	// Malformed limit is a 400 envelope.
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/jobs?limit=zero", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad limit: %d %s", code, raw)
	}
}

// TestGoldenThrottleEnvelopes pins the uniform 429 contract: every
// throttled response is a typed envelope with its own code and a
// Retry-After header.
func TestGoldenThrottleEnvelopes(t *testing.T) {
	t.Run("rate_limited", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Tenant: TenantLimits{Rate: 0.001, Burst: 1}})
		var ds Dataset
		if code, body := doJSON(t, "POST", ts.URL+"/v1/datasets?name=toy", []byte(contractCSV), &ds); code != http.StatusCreated {
			t.Fatalf("register: %d %s", code, body)
		}
		doJSON(t, "POST", ts.URL+"/v1/jobs", submitRequest{Dataset: ds.ID, Task: "describe"}, nil)
		code, hdr, raw := doReq(t, "POST", ts.URL+"/v1/jobs",
			map[string]string{"Content-Type": "application/json"},
			[]byte(`{"dataset":"`+ds.ID+`","task":"describe"}`))
		if code != http.StatusTooManyRequests {
			t.Fatalf("want 429, got %d %s", code, raw)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatal("missing Retry-After")
		}
		checkGolden(t, "err_rate_limited.json", raw)
	})

	t.Run("quota_exceeded", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Workers: 1, Tenant: TenantLimits{MaxJobs: 1}})
		var ds Dataset
		if code, body := doJSON(t, "POST", ts.URL+"/v1/datasets?name=heavy", heavyCSV(), &ds); code != http.StatusCreated {
			t.Fatalf("register: %d %s", code, body)
		}
		var held JobView
		if code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
			submitRequest{Dataset: ds.ID, Task: "rank-fds"}, &held); code != http.StatusAccepted {
			t.Fatalf("pin submit: %d %s", code, body)
		}
		code, hdr, raw := doReq(t, "POST", ts.URL+"/v1/jobs",
			map[string]string{"Content-Type": "application/json"},
			[]byte(`{"dataset":"`+ds.ID+`","task":"describe"}`))
		if code != http.StatusTooManyRequests {
			t.Fatalf("want 429, got %d %s", code, raw)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatal("missing Retry-After")
		}
		checkGolden(t, "err_quota_exceeded.json", raw)
		doJSON(t, "POST", ts.URL+"/v1/jobs/"+held.ID+"/cancel", nil, nil)
		waitJob(t, ts, held.ID)
	})

	t.Run("queue_full", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
		var ds Dataset
		if code, body := doJSON(t, "POST", ts.URL+"/v1/datasets?name=heavy", heavyCSV(), &ds); code != http.StatusCreated {
			t.Fatalf("register: %d %s", code, body)
		}
		var accepted []string
		var raw string
		var hdrRetry string
		got429 := false
		for i := 0; i < 8 && !got429; i++ {
			var v JobView
			code, hdr, body := doReq(t, "POST", ts.URL+"/v1/jobs",
				map[string]string{"Content-Type": "application/json"},
				[]byte(`{"dataset":"`+ds.ID+`","task":"rank-fds","params":{"psi":0.`+string(rune('1'+i))+`}}`))
			switch code {
			case http.StatusAccepted:
				if json.Unmarshal([]byte(body), &v) == nil {
					accepted = append(accepted, v.ID)
				}
			case http.StatusTooManyRequests:
				got429, raw, hdrRetry = true, body, hdr.Get("Retry-After")
			default:
				t.Fatalf("submit %d: %d %s", i, code, body)
			}
		}
		if !got429 {
			t.Fatal("never saw queue_full with depth 1")
		}
		if hdrRetry == "" {
			t.Fatal("missing Retry-After")
		}
		checkGolden(t, "err_queue_full.json", raw)
		for _, id := range accepted {
			doJSON(t, "POST", ts.URL+"/v1/jobs/"+id+"/cancel", nil, nil)
		}
		for _, id := range accepted {
			waitJob(t, ts, id)
		}
	})
}

// TestPaginationWalkCoversAll walks a larger corpus page by page and
// checks exact cover: no item skipped, none repeated, in sort order.
func TestPaginationWalkCoversAll(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var ds Dataset
	if code, body := doJSON(t, "POST", ts.URL+"/v1/datasets?name=toy", []byte(contractCSV), &ds); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	const jobs = 23
	for i := 0; i < jobs; i++ {
		var v JobView
		code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
			submitRequest{Dataset: ds.ID, Task: "rank-fds",
				Params: task.Params{Psi: task.F(0.01 * float64(i+1))}}, &v)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, code, body)
		}
	}
	seen := map[string]bool{}
	cursor := ""
	var last string
	for {
		path := ts.URL + "/v1/jobs?limit=5"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		var page struct {
			Items      []JobView `json:"items"`
			Total      int       `json:"total"`
			NextCursor string    `json:"next_cursor"`
		}
		if code, body := doJSON(t, "GET", path, nil, &page); code != http.StatusOK {
			t.Fatalf("page: %d %s", code, body)
		}
		if page.Total != jobs {
			t.Fatalf("total = %d, want %d", page.Total, jobs)
		}
		for _, v := range page.Items {
			if seen[v.ID] {
				t.Fatalf("job %s repeated across pages", v.ID)
			}
			if v.ID <= last {
				t.Fatalf("order violation: %s after %s", v.ID, last)
			}
			seen[v.ID] = true
			last = v.ID
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(seen) != jobs {
		t.Fatalf("walk covered %d of %d jobs", len(seen), jobs)
	}
}
