package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"structmine/internal/store"
	"structmine/internal/task"
)

// bigCSV builds a ~1MB instance: 2000 tuples (forcing the TANE branch
// and plenty of page stripes), a city→zip dependency to rank, and a
// wide padded column.
func bigCSV() []byte {
	var b bytes.Buffer
	b.WriteString("id,city,zip,grade,pad,note\n")
	cities := []string{"athens", "berlin", "cairo", "delhi"}
	pads := []string{
		strings.Repeat("alpha-", 70),
		strings.Repeat("bravo-", 70),
		strings.Repeat("delta-", 70),
	}
	for t := 0; t < 2000; t++ {
		city := cities[t%len(cities)]
		fmt.Fprintf(&b, "%d,%s,z-%s,g%d,%s,ok\n", t, city, city, t%3, pads[t%len(pads)])
	}
	return b.Bytes()
}

// openStoreClosed opens a store via the shared helper and closes it
// when the test ends.
func openStoreClosed(t *testing.T, dir string) *store.Store {
	t.Helper()
	st := openStore(t, dir)
	t.Cleanup(func() { st.Close() })
	return st
}

// metricValue extracts a single metric sample from a Prometheus text
// exposition.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
			if err != nil {
				t.Fatalf("parsing %s sample %q: %v", name, line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

func runToDone(t *testing.T, ts *httptest.Server, dataset, taskName string) (JobView, string) {
	t.Helper()
	var view JobView
	code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
		submitRequest{Dataset: dataset, Task: taskName}, &view)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit %s: %d %s", taskName, code, body)
	}
	if got := waitJob(t, ts, view.ID); got.State != StateDone {
		t.Fatalf("job %s: state %s (%s)", view.ID, got.State, got.Error)
	}
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+view.ID+"/result", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: %d %s", view.ID, resp.StatusCode, raw.String())
	}
	return view, raw.String()
}

// resultOf extracts the "result" member of a result envelope: the
// artifact bytes, without the job record around them.
func resultOf(t *testing.T, envelope string) string {
	t.Helper()
	var env struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal([]byte(envelope), &env); err != nil || len(env.Result) == 0 {
		t.Fatalf("result envelope %q: %v", envelope, err)
	}
	return string(env.Result)
}

// jobArtifact fetches a done job's /result and returns its artifact.
func jobArtifact(t *testing.T, ts *httptest.Server, jobID string) string {
	t.Helper()
	code, _, body := doReq(t, "GET", ts.URL+"/v1/jobs/"+jobID+"/result", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("result of %s: %d %s", jobID, code, body)
	}
	return resultOf(t, body)
}

// TestPagedTasksMatchResident is the acceptance end-to-end: a dataset
// registers as "storage":"paged" on a server with a store, every
// single-dataset task runs out of core, and each artifact is
// byte-identical to the one a plain resident server mines from the same
// CSV.
func TestPagedTasksMatchResident(t *testing.T) {
	csv := bigCSV()
	_, residentTS := newTestServer(t, Config{})
	st := openStoreClosed(t, t.TempDir())
	_, pagedTS := newTestServer(t, Config{Store: st})

	var resident, paged Dataset
	if code, body := doJSON(t, "POST", residentTS.URL+"/v1/datasets?name=big", csv, &resident); code != http.StatusCreated {
		t.Fatalf("resident register: %d %s", code, body)
	}
	if code, body := doJSON(t, "POST", pagedTS.URL+"/v1/datasets?name=big", csv, &paged); code != http.StatusCreated {
		t.Fatalf("paged register: %d %s", code, body)
	}
	if resident.Storage != StorageResident {
		t.Fatalf("resident server storage %q", resident.Storage)
	}
	if paged.Storage != StoragePaged {
		t.Fatalf("paged server storage %q, want %q", paged.Storage, StoragePaged)
	}
	if paged.Hash != resident.Hash || paged.Bytes != int64(len(csv)) {
		t.Fatalf("paged identity: hash %s bytes %d", paged.Hash, paged.Bytes)
	}
	if paged.Summary == nil || paged.Summary.Tuples != resident.Summary.Tuples ||
		paged.Summary.DistinctValues != resident.Summary.DistinctValues {
		t.Fatalf("paged summary diverges: %+v vs %+v", paged.Summary, resident.Summary)
	}

	for _, spec := range task.Specs {
		if spec.MultiFile {
			continue
		}
		_, wantBody := runToDone(t, residentTS, resident.ID, spec.Name)
		_, gotBody := runToDone(t, pagedTS, paged.ID, spec.Name)
		if gotBody != wantBody {
			t.Fatalf("paged %s artifact differs from resident:\n got %s\nwant %s", spec.Name, gotBody, wantBody)
		}
		if spec.Name == "rank-fds" && (!strings.Contains(gotBody, `"ranked"`) || !strings.Contains(gotBody, "city")) {
			t.Fatalf("suspiciously empty artifact: %s", gotBody)
		}
	}

	// The colstore metric families are exposed and alive: the open
	// table is gauged and the miner streamed pages.
	_, metrics := doJSON(t, "GET", pagedTS.URL+"/v1/metrics", nil, nil)
	if v := metricValue(t, metrics, "structmine_colstore_open_relations"); v < 1 {
		t.Errorf("open_relations %g, want >= 1", v)
	}
	if v := metricValue(t, metrics, "structmine_colstore_pages_read_total"); v <= 0 {
		t.Errorf("pages_read_total %g, want > 0", v)
	}
	metricValue(t, metrics, "structmine_colstore_page_faults_total")
	metricValue(t, metrics, "structmine_colstore_bytes_mapped")
}

// TestPagedRecoveryAtBoot reboots a server over the same store: the
// paged dataset (which has no snapshot — its colstore tail is the
// metadata) is re-adopted with a correct summary, and the rank-fds
// artifact recovered from the durable cache answers the repeated query
// as a cache hit.
func TestPagedRecoveryAtBoot(t *testing.T) {
	dir := t.TempDir()
	csv := bigCSV()

	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Store: st1})
	ts1 := httptest.NewServer(s1.Handler())
	var ds Dataset
	if code, body := doJSON(t, "POST", ts1.URL+"/v1/datasets?name=big", csv, &ds); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	if ds.Storage != StoragePaged {
		t.Fatalf("storage %q", ds.Storage)
	}
	_, firstBody := runToDone(t, ts1, ds.ID, "rank-fds")
	ts1.Close()
	st1.Close() // no graceful shutdown: the colstore file must carry everything

	st2 := openStoreClosed(t, dir)
	_, ts2 := newTestServer(t, Config{Store: st2})
	var got Dataset
	if code, body := doJSON(t, "GET", ts2.URL+"/v1/datasets/"+ds.ID, nil, &got); code != http.StatusOK {
		t.Fatalf("dataset after reboot: %d %s", code, body)
	}
	if got.Storage != StoragePaged || got.Name != "big" || got.Bytes != int64(len(csv)) {
		t.Fatalf("recovered dataset: %+v", got)
	}
	if got.Summary == nil || got.Summary.Tuples != 2000 || got.Summary.Attributes != 6 {
		t.Fatalf("recovered summary: %+v", got.Summary)
	}

	var view JobView
	code, body := doJSON(t, "POST", ts2.URL+"/v1/jobs",
		submitRequest{Dataset: ds.ID, Task: "rank-fds"}, &view)
	if code != http.StatusOK || !view.CacheHit {
		t.Fatalf("repeated rank-fds after reboot: %d %s (cache_hit=%t)", code, body, view.CacheHit)
	}
	_ = firstBody
}
