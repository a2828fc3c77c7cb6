package server

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"structmine/internal/datagen"
	"structmine/internal/relation"
	"structmine/internal/task"
)

// escapeCSV is a relation whose attribute names and values hold every
// byte class JSON encoding treats specially: HTML-escaped <, > and &,
// quotes and backslashes, tabs, non-ASCII and U+2028.
func escapeCSV(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	rows := [][]string{{"a<b>", `q"&\`, "t\tab", "é\u2028x"}}
	first := []string{"<x>", "y&z", `"q"`, `back\slash`}
	second := []string{"tab\there", "é", "line\u2028sep", "<&>"}
	for i := 0; i < 40; i++ {
		rows = append(rows, []string{
			first[i%4],
			second[i%4], // functionally determined by the first column
			fmt.Sprintf("v%d %s", i%5, first[(i/3)%4]),
			fmt.Sprintf("ü%d", i%7),
		})
	}
	if err := w.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// dblpCSV is a small projection of the synthetic DBLP relation.
func dblpCSV(t *testing.T) []byte {
	t.Helper()
	r := datagen.NewDBLP(datagen.DBLPConfig{Tuples: 300, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28})
	var b bytes.Buffer
	if err := r.Project(datagen.ProjectionAttrs()).WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// oracleResult renders a done job's /result response the way the
// handler did before the memory tier held served forms: the job view
// and the compact artifact through writeJSON.
func oracleResult(view JobView, compact []byte) string {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, jobResult{Job: view, Result: compact})
	return rec.Body.String()
}

// TestResultBytesMatchWriteJSON is the byte-identity oracle of the
// served form: for every runnable task, over relations that exercise
// JSON's escapes, the /result body equals writeJSON(jobResult{view,
// compact artifact}) on a fresh job, a memory hit, a journal-recovered
// job after a restart (the Peek path, from disk and then from memory)
// and a disk-promoted hit; and the store's artifact file holds the
// compact json.Marshal bytes of the task's result.
func TestResultBytesMatchWriteJSON(t *testing.T) {
	var names []string
	for _, sp := range task.Specs {
		if !sp.MultiFile {
			names = append(names, sp.Name)
		}
	}
	for _, tc := range []struct {
		name string
		csv  []byte
	}{
		{"db2", db2CSV(t)},
		{"dblp", dblpCSV(t)},
		{"escapes", escapeCSV(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rel, err := relation.ReadCSV(tc.name, bytes.NewReader(tc.csv))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()

			// First life: a fresh job and a memory hit per task.
			st1 := openStore(t, dir)
			s1 := New(Config{Workers: 1, Store: st1})
			ts1 := httptest.NewServer(s1.Handler())
			var ds Dataset
			if code, body := doJSON(t, "POST", ts1.URL+"/v1/datasets?name="+tc.name, tc.csv, &ds); code != http.StatusCreated {
				t.Fatalf("register: %d %s", code, body)
			}
			compact := map[string][]byte{}
			first := map[string]string{} // task → the fresh job's id
			for _, name := range names {
				var v JobView
				if code, body := doJSON(t, "POST", ts1.URL+"/v1/jobs", submitRequest{Dataset: ds.ID, Task: name}, &v); code != http.StatusAccepted {
					t.Fatalf("%s: submit: %d %s", name, code, body)
				}
				got := waitJob(t, ts1, v.ID)
				res, err := task.Run(context.Background(), rel, name, task.Params{})
				if err != nil { // mine-mvds refuses DB2's 19 attributes
					if got.State != StateFailed || got.Error != err.Error() {
						t.Fatalf("%s: job %s (%s), want failed with %q", name, got.State, got.Error, err)
					}
					rec := httptest.NewRecorder()
					writeJSON(rec, http.StatusConflict, jobResult{Job: got})
					if code, _, body := doReq(t, "GET", ts1.URL+"/v1/jobs/"+v.ID+"/result", nil, nil); code != http.StatusConflict || body != rec.Body.String() {
						t.Fatalf("%s: failed job's /result = %d\n%s\n--- want\n%s", name, code, body, rec.Body)
					}
					continue
				}
				if got.State != StateDone {
					t.Fatalf("%s: job %s (%s)", name, got.State, got.Error)
				}
				want, _ := json.Marshal(res)
				stored, ok := st1.GetArtifact(Key(ds.Hash, ds.Epoch, name, task.Params{}.Normalize(name)))
				if !ok || !bytes.Equal(stored, want) {
					t.Fatalf("%s: the store holds %q, want the compact json.Marshal bytes %q", name, stored, want)
				}
				compact[name], first[name] = stored, v.ID
				assertResultBytes(t, s1, ts1, name+" fresh", v.ID, stored)

				var hit JobView
				doJSON(t, "POST", ts1.URL+"/v1/jobs", submitRequest{Dataset: ds.ID, Task: name}, &hit)
				if !hit.CacheHit {
					t.Fatalf("%s: resubmission is no cache hit", name)
				}
				assertResultBytes(t, s1, ts1, name+" memory hit", hit.ID, stored)
			}
			if tc.name == "escapes" { // the names reach describe's artifact, JSON-escaped
				for _, esc := range []string{`\u003c`, `\u003e`, `\u0026`, `\"`, `\\`, `\t`, `\u2028`, "é"} {
					if !bytes.Contains(compact["describe"], []byte(esc)) {
						t.Errorf("describe's artifact holds no %s: %s", esc, compact["describe"])
					}
				}
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

			// Second life over the same store.
			s2, ts2 := newTestServer(t, Config{Workers: 1, Store: openStoreClosed(t, dir)})
			for _, name := range names {
				if first[name] == "" {
					continue
				}
				assertResultBytes(t, s2, ts2, name+" recovered (disk)", first[name], compact[name])
				var hit JobView
				doJSON(t, "POST", ts2.URL+"/v1/jobs", submitRequest{Dataset: ds.ID, Task: name}, &hit)
				if !hit.CacheHit {
					t.Fatalf("%s: resubmission after the restart is no cache hit", name)
				}
				assertResultBytes(t, s2, ts2, name+" disk-promoted hit", hit.ID, compact[name])
				assertResultBytes(t, s2, ts2, name+" recovered (memory)", first[name], compact[name])
			}
			if h := s2.CacheStats(); h.DiskHits != uint64(len(first)) {
				t.Errorf("disk hits = %d, want one per done task (%d)", h.DiskHits, len(first))
			}
		})
	}
}

// assertResultBytes fetches the job's /result and compares it, byte for
// byte, with the oracle rendering of the job's view and artifact.
func assertResultBytes(t *testing.T, s *Server, ts *httptest.Server, what, id string, compact []byte) {
	t.Helper()
	view, ok := s.jobs.Get(id)
	if !ok || view.State != StateDone {
		t.Fatalf("%s: job %s = %+v, %v", what, id, view, ok)
	}
	code, hdr, body := doReq(t, "GET", ts.URL+"/v1/jobs/"+id+"/result", nil, nil)
	if want := oracleResult(view, compact); code != http.StatusOK || body != want {
		t.Fatalf("%s: /result = %d\n%s\n--- want\n%s", what, code, body, want)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: Content-Type %q", what, ct)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so a
// measurement of a handler counts only what the handler allocates.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// cachedResult runs a partition job on DBLP to completion and returns the
// server, a GET of its /result and the artifact's served form.
func cachedResult(tb testing.TB) (*Server, *http.Request, []byte) {
	s := New(Config{Workers: 1})
	tb.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	r := datagen.NewDBLP(datagen.DBLPConfig{Tuples: 1000, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28})
	var b bytes.Buffer
	if err := r.Project(datagen.ProjectionAttrs()).WriteCSV(&b); err != nil {
		tb.Fatal(err)
	}
	ds, _, err := s.Registry().RegisterCSV("dblp", "test", b.Bytes())
	if err != nil {
		tb.Fatal(err)
	}
	v, err := s.jobs.SubmitAs("", "", ds.ID, "partition", task.Params{K: 3})
	if err != nil {
		tb.Fatal(err)
	}
	done, _ := s.jobs.Done(v.ID)
	<-done
	res, view, _ := s.jobs.Result(v.ID)
	if view.State != StateDone {
		tb.Fatalf("job %+v", view)
	}
	req := httptest.NewRequest("GET", "/v1/jobs/"+v.ID+"/result", nil)
	req.SetPathValue("id", v.ID)
	return s, req, res
}

func benchCachedResult(b *testing.B, s *Server, req *http.Request) {
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.handleJobResult(w, req)
	}
}

// BenchmarkCachedResult times one GET /v1/jobs/{id}/result of a done
// job, handler only: the serve_hot request the memory tier answers.
func BenchmarkCachedResult(b *testing.B) {
	s, req, served := cachedResult(b)
	b.ResetTimer()
	benchCachedResult(b, s, req)
	b.ReportMetric(float64(len(served)), "served-B")
}

// TestCachedResultAllocatesTheBodyOnce bounds what a cached /result
// allocates: one response buffer of the served form's length plus a
// small constant for the job view. A handler that re-encodes the
// artifact per request allocates at least twice the served form.
func TestCachedResultAllocatesTheBodyOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on behalf of the code it instruments")
	}
	s, req, served := cachedResult(t)
	if len(served) < 8<<10 {
		t.Fatalf("served form is %d bytes, too small for the bound to tell", len(served))
	}
	const slack = 2 << 10
	res := testing.Benchmark(func(b *testing.B) { benchCachedResult(b, s, req) })
	if got := res.AllocedBytesPerOp(); got > int64(len(served))+slack {
		t.Fatalf("a cached /result allocates %d B, want ≤ %d (served form) + %d", got, len(served), slack)
	}
}

// pruneOracle is pruneLocked's single-walk form: drop the oldest
// terminal records past retain, stepping over queued and running ones.
func pruneOracle(order []string, jobs map[string]*Job, retain int) []string {
	if retain <= 0 || len(order) <= retain {
		return order
	}
	excess := len(order) - retain
	kept := order[:0]
	for _, id := range order {
		if excess > 0 && jobs[id].state.Terminal() {
			delete(jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	return kept
}

// TestPropPruneMatchesScan drives random submit / finish / cancel
// sequences against random retention caps and checks that after every
// step pruneLocked leaves the same q.order and q.jobs as the oracle.
func TestPropPruneMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		retain := rng.Intn(8)
		q := &Runner{retain: retain, jobs: map[string]*Job{}}
		var order []string
		jobs := map[string]*Job{}
		seq := 0
		for step := 0; step < 200; step++ {
			var live []*Job
			for _, id := range q.order {
				if j := q.jobs[id]; !j.state.Terminal() {
					live = append(live, j)
				}
			}
			switch op := rng.Intn(3); {
			case op == 0 || len(live) == 0: // submit: queued, or a cache hit that is done at once
				seq++
				j := &Job{id: fmt.Sprintf("job-%06d", seq), state: StateQueued}
				if rng.Intn(3) == 0 {
					j.state = StateDone
				}
				q.jobs[j.id], jobs[j.id] = j, j
				q.order, order = append(q.order, j.id), append(order, j.id)
			case op == 1: // a job finishes, done or failed
				live[rng.Intn(len(live))].state = []State{StateDone, StateFailed}[rng.Intn(2)]
			default: // a cancel, which prunes nothing until the next step
				live[rng.Intn(len(live))].state = StateCanceled
				continue
			}
			q.pruneLocked()
			order = pruneOracle(order, jobs, retain)
			if !slices.Equal(q.order, order) || len(q.jobs) != len(jobs) {
				t.Fatalf("trial %d step %d (retain %d): order %v, oracle %v", trial, step, retain, q.order, order)
			}
			for id := range jobs {
				if q.jobs[id] != jobs[id] {
					t.Fatalf("trial %d step %d: job %s kept by one side only", trial, step, id)
				}
			}
		}
	}
}
