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
	"strconv"
	"testing"
	"time"

	"structmine/internal/cluster"
	"structmine/internal/datagen"
	"structmine/internal/relation"
	"structmine/internal/task"
)

// escapeCSV is a relation whose attribute names and values hold every
// byte class JSON encoding treats specially: HTML-escaped <, > and &,
// quotes and backslashes, tabs, non-ASCII, U+2028 and U+2029.
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
			fmt.Sprintf("v%d\u2029%s", i%5, first[(i/3)%4]),
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

// viewOf returns the job's view as its fields read now, apart from the
// bytes renderLocked keeps: the oracle side of the byte-identity tests.
func viewOf(s *Server, id string) (JobView, bool) {
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	job, ok := s.jobs.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return job.viewLocked(), true
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
	view, ok := viewOf(s, id)
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

// jobResult is the shape of every /result response, as writeJSON
// encoded it before job views were served as stored bytes.
type jobResult struct {
	Job    JobView         `json:"job"`
	Result json.RawMessage `json:"result"`
}

// jobItem is what a GET /v1/jobs item was before job views were served
// as stored bytes: the view plus, in router mode, the listing node's id.
type jobItem struct {
	JobView
	Node string `json:"node,omitempty"`
}

// viewNode is one replica under TestViewBytesMatchWriteJSON: its server
// and the URL that reaches it.
type viewNode struct {
	srv *Server
	url string
}

// viewOracle holds every view-bearing response of a set of replicas to
// writeJSON over the job's fields as they read now (viewOf), never over
// the bytes renderLocked kept.
type viewOracle struct {
	t     *testing.T
	nodes []viewNode
}

// get fetches url and checks its status and declared length.
func (o viewOracle) get(method, url string, wantCode int) string {
	o.t.Helper()
	code, hdr, body := doReq(o.t, method, url, nil, nil)
	if code != wantCode {
		o.t.Fatalf("%s %s = %d %s, want %d", method, url, code, body, wantCode)
	}
	if cl := hdr.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		o.t.Fatalf("%s %s: Content-Length %q for a %d-byte body", method, url, cl, len(body))
	}
	return body
}

// head checks HEAD of a path on one replica: 200, no body, the length a
// GET declares and, when it went through a hop, every peer still healthy
// (a proxy that waits for a body HEAD never carries marks its peer down).
func (o viewOracle) head(what string, n viewNode, path string, length int) {
	o.t.Helper()
	code, hdr, body := doReq(o.t, "HEAD", n.url+path, nil, nil)
	if cl := hdr.Get("Content-Length"); code != http.StatusOK || body != "" || cl != strconv.Itoa(length) {
		o.t.Fatalf("%s: HEAD %s via %s = %d, Content-Length %q, body %q; want 200, %d, none", what, path, n.url, code, cl, body, length)
	}
	if rt := n.srv.cfg.Router; rt != nil {
		for _, p := range rt.Table().Nodes() {
			if p.ID != rt.Self().ID && !rt.Prober().Healthy(p.ID) {
				o.t.Fatalf("%s: HEAD %s via %s left peer %s unhealthy", what, path, n.url, p.ID)
			}
		}
	}
}

// owner returns the replica whose runner holds the job.
func (o viewOracle) owner(id string) *Server {
	o.t.Helper()
	for _, n := range o.nodes {
		if _, ok := viewOf(n.srv, id); ok {
			return n.srv
		}
	}
	o.t.Fatalf("no replica holds job %s", id)
	return nil
}

func oracleJSON(code int, v any) string {
	rec := httptest.NewRecorder()
	writeJSON(rec, code, v)
	return rec.Body.String()
}

// job checks GET /v1/jobs/{id} through every replica (a proxied hop on
// all but the owner), and /result once the job is terminal.
func (o viewOracle) job(what, id string) JobView {
	o.t.Helper()
	s := o.owner(id)
	view, _ := viewOf(s, id)
	for _, n := range o.nodes {
		viewBody := oracleJSON(http.StatusOK, view)
		if got := o.get("GET", n.url+"/v1/jobs/"+id, http.StatusOK); got != viewBody {
			o.t.Fatalf("%s: GET %s via %s =\n%s\n--- want\n%s", what, id, n.url, got, viewBody)
		}
		o.head(what, n, "/v1/jobs/"+id, len(viewBody))
		var want string
		switch view.State {
		case StateDone:
			res, _, _ := s.jobs.Result(id)
			var compact bytes.Buffer
			if err := json.Compact(&compact, res); err != nil {
				o.t.Fatal(err)
			}
			want = oracleResult(view, compact.Bytes())
		case StateFailed, StateCanceled:
			want = oracleJSON(http.StatusConflict, jobResult{Job: view})
		default:
			continue
		}
		code := http.StatusOK
		if view.State != StateDone {
			code = http.StatusConflict
		}
		if got := o.get("GET", n.url+"/v1/jobs/"+id+"/result", code); got != want {
			o.t.Fatalf("%s: /result of %s via %s =\n%s\n--- want\n%s", what, id, n.url, got, want)
		}
	}
	return view
}

// echoed checks a response that carried a view as it was when the
// request was served (a submit or the cancel of a running job, whose
// state may have moved on since): it is writeJSON of the view it
// decodes to, and that view is in state want.
func (o viewOracle) echoed(what, body string, want State) JobView {
	o.t.Helper()
	var v JobView
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		o.t.Fatalf("%s: %v in %s", what, err, body)
	}
	if got := oracleJSON(http.StatusOK, v); body != got || v.State != want {
		o.t.Fatalf("%s: body\n%s\n--- want %s, as writeJSON writes it\n%s", what, body, want, got)
	}
	return v
}

// lists walks GET /v1/jobs on every replica two items a page, then asks
// for the empty page past the last item, and checks each page.
func (o viewOracle) lists(what string) {
	o.t.Helper()
	for _, n := range o.nodes {
		cursor, pages := "", 0
		for {
			url := n.url + "/v1/jobs?limit=2"
			if cursor != "" {
				url += "&cursor=" + cursor
			}
			body := o.get("GET", url, http.StatusOK)
			var page struct {
				Items      []JobView `json:"items"`
				NextCursor string    `json:"next_cursor"`
			}
			if err := json.Unmarshal([]byte(body), &page); err != nil {
				o.t.Fatalf("%s: %v in %s", what, err, body)
			}
			items := []jobItem{}
			for _, it := range page.Items {
				v, _ := viewOf(n.srv, it.ID)
				items = append(items, jobItem{JobView: v, Node: n.srv.nodeID()})
			}
			want := oracleJSON(http.StatusOK, listPage{Items: items, Total: n.srv.jobs.Len(), NextCursor: page.NextCursor})
			if body != want {
				o.t.Fatalf("%s: %s =\n%s\n--- want\n%s", what, url, body, want)
			}
			pages++
			if len(page.Items) == 0 || page.NextCursor == "" {
				if len(page.Items) > 0 { // the last page: past it lies the empty one
					cursor = page.Items[len(page.Items)-1].ID
					continue
				}
				break
			}
			cursor = page.NextCursor
		}
		if n.srv.jobs.Len() > 2 && pages < 3 {
			o.t.Fatalf("%s: %d jobs listed in %d pages", what, n.srv.jobs.Len(), pages)
		}
	}
}

// TestViewBytesMatchWriteJSON is the byte-identity oracle of the view
// bytes each job keeps: in standalone and in router mode, through every
// replica, the submit (202 and a 200 cache hit), poll, cancel, list and
// /result bodies equal writeJSON over the job's fields at each state a
// job passes — queued, running, done, failed, canceled, the cancel of a
// queued and of a running job, and journal-recovered records (one failed
// with an error that holds JSON's escapes) — on the empty list, every
// page of a list and the empty page past its end. A HEAD of a job, also
// through a hop, declares the GET's length and leaves every peer healthy.
func TestViewBytesMatchWriteJSON(t *testing.T) {
	for _, mode := range []string{"standalone", "router"} {
		t.Run(mode, func(t *testing.T) {
			var nodes []viewNode
			if mode == "standalone" {
				s, ts := newTestServer(t, Config{Workers: 1})
				nodes = []viewNode{{s, ts.URL}}
			} else {
				for _, n := range newTestCluster(t, 2, Config{Workers: 1}) {
					nodes = append(nodes, viewNode{n.srv, n.ts.URL})
				}
			}
			o := viewOracle{t: t, nodes: nodes}
			front := nodes[len(nodes)-1].url // proxies whatever the other replica owns
			o.lists("no jobs")

			register := func(name string, csv []byte) Dataset {
				var ds Dataset
				if code, body := doJSON(t, "POST", front+"/v1/datasets?name="+name, csv, &ds); code != http.StatusCreated {
					t.Fatalf("register %s: %d %s", name, code, body)
				}
				return ds
			}
			submit := func(ds Dataset, taskName string, wantCode int) string {
				body, _ := json.Marshal(submitRequest{Dataset: ds.ID, Task: taskName})
				code, _, raw := doReq(t, "POST", front+"/v1/jobs", map[string]string{"Content-Type": "application/json"}, body)
				if code != wantCode {
					t.Fatalf("submit %s: %d %s, want %d", taskName, code, raw, wantCode)
				}
				return raw
			}
			await := func(id string, want State) {
				deadline := time.Now().Add(30 * time.Second)
				for v, _ := viewOf(o.owner(id), id); v.State != want; v, _ = viewOf(o.owner(id), id) {
					if v.State.Terminal() || time.Now().After(deadline) {
						t.Fatalf("job %s is %s, want %s", id, v.State, want)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
			heavy, db2 := register("heavy", heavyCSV()), register("db2", db2CSV(t))

			// Queued, then running: the pin holds its replica's one worker.
			pin := o.echoed("pin submit", submit(heavy, "mine-mvds", http.StatusAccepted), StateQueued)
			t.Cleanup(func() { // a failure must not leave the pin to run its course under Shutdown
				if resp, err := http.Post(front+"/v1/jobs/"+pin.ID+"/cancel", "", nil); err == nil {
					resp.Body.Close()
				}
			})
			await(pin.ID, StateRunning)
			o.job("running", pin.ID)
			queued := o.echoed("queued submit", submit(heavy, "describe", http.StatusAccepted), StateQueued)
			o.job("queued", queued.ID)
			o.lists("queued and running")

			// Canceled while queued, then while running.
			if got, want := o.get("POST", front+"/v1/jobs/"+queued.ID+"/cancel", http.StatusOK), oracleJSON(http.StatusOK, o.job("canceled queued", queued.ID)); got != want {
				t.Fatalf("cancel of a queued job =\n%s\n--- want\n%s", got, want)
			}
			o.echoed("cancel of the running pin", o.get("POST", front+"/v1/jobs/"+pin.ID+"/cancel", http.StatusOK), StateRunning)
			await(pin.ID, StateCanceled)
			o.job("canceled running", pin.ID)

			// Done, a cache hit of it, and failed: mine-mvds refuses DB2's 19 attributes.
			done := o.echoed("describe submit", submit(db2, "describe", http.StatusAccepted), StateQueued)
			await(done.ID, StateDone)
			o.job("done", done.ID)
			hit := o.echoed("cache-hit submit", submit(db2, "describe", http.StatusOK), StateDone)
			o.job("cache hit", hit.ID)
			failed := o.echoed("failing submit", submit(db2, "mine-mvds", http.StatusAccepted), StateQueued)
			await(failed.ID, StateFailed)
			o.job("failed", failed.ID)

			// Journal-recovered records on the replica that ran the describe:
			// a failed one whose error holds JSON's escapes, and a done one
			// whose artifact the cache answers.
			s := o.owner(done.ID)
			prefix := s.jobs.idPrefix
			key := Key(db2.Hash, db2.Epoch, "describe", task.Params{}.Normalize("describe"))
			recs := [][]byte{}
			for _, jr := range []jobRecord{
				{ID: prefix + "000900", Dataset: db2.ID, Task: "approx-fds", Params: task.Params{}.Normalize("approx-fds"),
					Key: "gone", State: StateFailed, Error: "bad <name> & \"quote\" \\ tab\t \u2028 é"},
				{ID: prefix + "000901", Dataset: db2.ID, Task: "describe", Params: task.Params{}, Key: key,
					State: StateDone, Tenant: "t<1>", Priority: PriorityBatch},
			} {
				raw, _ := json.Marshal(jr)
				recs = append(recs, raw)
			}
			s.jobs.Preload(recs)
			o.job("recovered failed", prefix+"000900")
			o.job("recovered done", prefix+"000901")
			o.lists("every state")
		})
	}
}

// FuzzJobViewBytes holds the assembled job responses to writeJSON over
// arbitrary strings (JSON's escapes, U+2028, invalid UTF-8), params, a
// state and a node id or none: a job's view bytes, a list page of 1–3
// such jobs with and without a next cursor, and the /result envelope,
// done (over an arbitrary artifact) and failed or canceled.
func FuzzJobViewBytes(f *testing.F) {
	f.Add("77abe84cc3f7", "default", "", []byte(`{}`), uint8(0), "", `{"a":[1,2.5,"x"],"b":{}}`)
	f.Add(`<x>&"q"\`, "t\u2028", "boom <&> \"\\ \u2028 \xff\xfe", []byte(`{"psi":0.3,"k":2,"phit":-0}`), uint8(0x4b), "http://127.0.0.1:9/?a=<b>&c", "\xff<\u2029")
	f.Add("", "", "", []byte(`{"eps":1e-9,"max_lhs":4,"double":true}`), uint8(0xff), "n", `[]`)
	names := task.Names()
	states := []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}
	f.Fuzz(func(t *testing.T, dataset, tenant, errMsg string, params []byte, pick uint8, node, artifact string) {
		var p task.Params
		if json.Unmarshal(params, &p) != nil {
			p = task.Params{}
		}
		taskName := names[int(pick>>3)%len(names)]
		priority := PriorityInteractive
		if pick&4 != 0 {
			priority = PriorityBatch
		}
		var jobs []*Job
		for i := 0; i <= int(pick)%3; i++ {
			j := &Job{
				id: fmt.Sprintf("job-%06d", i+1), datasetID: dataset, task: taskName, params: p.Normalize(taskName),
				state: states[(int(pick)+i)%len(states)], errMsg: errMsg, cacheHit: pick&8 != 0, recovered: i == 1,
				tenant: tenant, priority: priority,
			}
			j.renderLocked()
			jobs = append(jobs, j)
		}

		view := jobs[0].viewLocked()
		rec := httptest.NewRecorder()
		writeBytes(rec, http.StatusOK, jobs[0].view)
		if got, want := rec.Body.String(), oracleJSON(http.StatusOK, view); got != want {
			t.Fatalf("view bytes\n%s\n--- want\n%s", got, want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("Content-Length %q for %d bytes", cl, rec.Body.Len())
		}

		var views [][]byte
		items := []jobItem{}
		for _, j := range jobs {
			views = append(views, j.view)
			items = append(items, jobItem{JobView: j.viewLocked(), Node: node})
		}
		for _, next := range []string{"", jobs[len(jobs)-1].id, dataset} {
			if got, want := string(jobPage(views, node, len(jobs)+int(pick), next)), oracleJSON(http.StatusOK, listPage{Items: items, Total: len(jobs) + int(pick), NextCursor: next}); got != want {
				t.Fatalf("list page (next %q)\n%s\n--- want\n%s", next, got, want)
			}
		}

		compact := []byte(artifact)
		var v any
		if json.Unmarshal(compact, &v) != nil {
			v = artifact
		}
		compact, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		res, ok := served(compact)
		if !ok {
			t.Fatalf("served refuses %s", compact)
		}
		if got, want := string(resultBody(jobs[0].view, res)), oracleResult(view, compact); got != want {
			t.Fatalf("/result\n%s\n--- want\n%s", got, want)
		}
		if got, want := string(resultBody(jobs[0].view, nil)), oracleJSON(http.StatusConflict, jobResult{Job: view}); got != want {
			t.Fatalf("/result of a failed or canceled job\n%s\n--- want\n%s", got, want)
		}
	})
}

// jobList stands up a one-node replica set (so list items carry a node
// field, as on a serve_hot owner) holding 100 done jobs — one describe
// and 99 cache hits of it — and returns it with the body of a describe
// submission and a GET /v1/jobs of one full page.
func jobList(tb testing.TB, jobs int) (s *Server, submit []byte, list *http.Request) {
	const self = "http://127.0.0.1:1"
	rt, err := cluster.New(self, []string{self}, time.Hour)
	if err != nil {
		tb.Fatal(err)
	}
	s = New(Config{Workers: 1, Router: rt})
	tb.Cleanup(func() {
		_ = s.Shutdown(context.Background())
		rt.Close()
	})
	ds, _, err := s.Registry().RegisterCSV("toy", "test", []byte(contractCSV))
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		v, err := s.jobs.SubmitAs("", "", ds.ID, "describe", task.Params{})
		if err != nil {
			tb.Fatal(err)
		}
		done, _ := s.jobs.Done(v.ID)
		<-done
	}
	submit, _ = json.Marshal(submitRequest{Dataset: ds.ID, Task: "describe"})
	return s, submit, httptest.NewRequest("GET", "/v1/jobs", nil)
}

func benchListJobs(b *testing.B, s *Server, req *http.Request) {
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.handleListJobs(w, req)
	}
}

// BenchmarkListJobs times one GET /v1/jobs page of 100 jobs in router
// mode, handler only, with one page retained and with the default
// retention full.
func BenchmarkListJobs(b *testing.B) {
	for _, retained := range []int{defaultPageLimit, 1024} {
		b.Run(fmt.Sprintf("retained=%d", retained), func(b *testing.B) {
			s, _, req := jobList(b, retained)
			b.ResetTimer()
			benchListJobs(b, s, req)
		})
	}
}

// BenchmarkSubmitCacheHit times one POST /v1/jobs whose artifact is
// cached, handler only: the submission serve_hot repeats.
func BenchmarkSubmitCacheHit(b *testing.B) {
	s, body, _ := jobList(b, defaultPageLimit)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/jobs", rd)
	req.Header.Set("Content-Type", "application/json")
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		s.handleSubmitJob(w, req)
	}
}

// TestJobPageAllocatesTheBodyOnce bounds what a GET /v1/jobs page
// allocates: one response buffer of the page's length plus, per item,
// the slice entries that copy its id and its view out from under the
// runner's lock, and a small constant. Encoding the views per request
// allocates several times the page.
func TestJobPageAllocatesTheBodyOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on behalf of the code it instruments")
	}
	s, _, req := jobList(t, defaultPageLimit)
	rec := httptest.NewRecorder()
	s.handleListJobs(rec, req)
	page := rec.Body.Len()
	const perItem, slack = 64, 2 << 10
	res := testing.Benchmark(func(b *testing.B) { benchListJobs(b, s, req) })
	if got, bound := res.AllocedBytesPerOp(), int64(page+defaultPageLimit*perItem+slack); got > bound {
		t.Fatalf("a list page of %d B allocates %d B, want ≤ %d", page, got, bound)
	}
	t.Logf("a %d-byte page allocates %d B in %d allocations", page, res.AllocedBytesPerOp(), res.AllocsPerOp())
}

// Recovered ids behind other prefixes leave q.order out of id order.
// Pages still come back in id order, and a cursor stays stable while a
// job is submitted mid-walk: nothing at or before it comes back, and
// everything after it does.
func TestJobPagesInIDOrderAcrossPrefixes(t *testing.T) {
	s, _, _ := jobList(t, 3)
	var recs [][]byte
	for _, id := range []string{"job-ffffff-000002", "job-000123", "job-000000-000009"} {
		raw, _ := json.Marshal(jobRecord{ID: id, Dataset: "gone", Task: "describe", Key: "gone", State: StateFailed, Error: "recovered"})
		recs = append(recs, raw)
	}
	s.jobs.Preload(recs)
	s.jobs.mu.Lock()
	all := slices.Clone(s.jobs.order)
	s.jobs.mu.Unlock()
	if slices.IsSorted(all) {
		t.Fatalf("retained ids %v are already in id order", all)
	}
	datasets, _, _ := s.Registry().Page("", 1)
	dsID := datasets[0].ID

	var got []string
	cursor, late := "", ""
	for {
		views, next, total := s.jobs.Page(cursor, 2)
		if want := len(all); total != want {
			t.Fatalf("total %d, want %d", total, want)
		}
		for _, view := range views {
			var v struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(view, &v); err != nil {
				t.Fatal(err)
			}
			if v.ID <= cursor || (len(got) > 0 && v.ID <= got[len(got)-1]) {
				t.Fatalf("%s after cursor %q and %v", v.ID, cursor, got)
			}
			got = append(got, v.ID)
		}
		if next == "" {
			break
		}
		cursor = next
		if late == "" {
			v, err := s.jobs.SubmitAs("", "", dsID, "describe", task.Params{})
			if err != nil {
				t.Fatal(err)
			}
			late = v.ID
			all = append(all, late)
			if late <= cursor {
				got = append(got, late) // sorts into the pages already read
			}
		}
	}
	slices.Sort(got)
	slices.Sort(all)
	if !slices.Equal(got, all) {
		t.Fatalf("pages returned %v, want %v", got, all)
	}
}
