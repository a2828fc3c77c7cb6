package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"structmine/internal/obs"
	"structmine/internal/task"
)

func (s *Server) routes() {
	// Every route is registered through handle, which wraps the handler
	// with a per-route request counter and latency histogram. The route
	// label is the registration pattern, so the cardinality is fixed at
	// the route table size regardless of traffic.
	handle := func(pattern string, h http.HandlerFunc) {
		count := s.reqTotal.With(pattern)
		latency := s.reqSeconds.With(pattern)
		s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			h(w, r)
			count.Inc()
			latency.Observe(time.Since(start).Seconds())
		})
	}
	// /v1 is the only HTTP surface; anything else is the mux's plain 404.
	handle("POST /v1/datasets", s.handleRegisterDataset)
	handle("GET /v1/datasets", s.handleListDatasets)
	handle("GET /v1/datasets/{id}", s.handleGetDataset)
	handle("POST /v1/datasets/{id}/append", s.handleAppendDataset)
	handle("POST /v1/jobs", s.handleSubmitJob)
	handle("GET /v1/jobs", s.handleListJobs)
	handle("GET /v1/jobs/{id}", s.handleGetJob)
	handle("GET /v1/jobs/{id}/result", s.handleJobResult)
	handle("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	handle("POST /v1/jobs/{id}/cancel", s.handleCancelJob)
	handle("GET /v1/healthz", s.handleHealthz)
	handle("GET /v1/tasks", s.handleListTasks)
	handle("GET /v1/metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// indent is the one unit of every JSON response's layout: writeJSON's,
// the job views renderLocked keeps, the artifacts' served form, and the
// nesting jobPage and resultBody give those bytes.
const indent = "  "

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", indent)
	_ = enc.Encode(v)
}

// writeBytes writes a JSON response assembled ahead of time, in one
// Write, with its length declared.
func writeBytes(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// appendNested appends part of a writeJSON document as part of a value
// nested inside another one: prefix follows every newline, as
// json.Indent's prefix would. The document's own newlines are all
// layout, since encoding/json escapes every newline inside a string.
func appendNested(dst, doc []byte, prefix string) []byte {
	for {
		i := bytes.IndexByte(doc, '\n')
		if i < 0 {
			return append(dst, doc...)
		}
		dst = append(dst, doc[:i+1]...)
		dst = append(dst, prefix...)
		doc = doc[i+1:]
	}
}

// readBody reads a request body of at most limit bytes. A declared
// Content-Length within the limit sizes the buffer once, where growing
// it by doubling would allocate several times the body. On failure it
// has written the response — 413 body_too_large naming what overflowed,
// 400 for any other read error — and reports ok=false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, what string) (body []byte, ok bool) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= limit {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom keeps MinRead free for its last, empty read
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeAPIErr(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				"%s exceeds %d bytes", what, limit)
		} else {
			writeAPIErr(w, http.StatusBadRequest, CodeBadRequest, "reading body: %v", err)
		}
		return nil, false
	}
	return buf.Bytes(), true
}

// registerRequest is the JSON form of POST /v1/datasets. Alternatively
// the body may be the CSV itself (Content-Type text/csv) with the
// dataset name in the ?name= query parameter.
type registerRequest struct {
	// Path registers a CSV readable from the server's filesystem.
	Path string `json:"path,omitempty"`
	// Name labels inline CSV content.
	Name string `json:"name,omitempty"`
	// CSV carries inline content when not uploading raw text/csv.
	CSV string `json:"csv,omitempty"`
}

func (s *Server) handleRegisterDataset(w http.ResponseWriter, r *http.Request) {
	if s.jobs.Draining() {
		writeErrFor(w, ErrDraining)
		return
	}
	body, ok := readBody(w, r, s.cfg.MaxUploadBytes, "upload")
	if !ok {
		return
	}

	// Decode the upload far enough to know the CSV content bytes. In
	// router mode the content hash is the routing key: the registration
	// is proxied (original body, original Content-Type) to the
	// rendezvous owner before any local state is touched, so the same
	// content registers on the same node no matter which replica the
	// client hit. Path registrations stay node-local: the path names
	// this node's filesystem.
	var ds *Dataset
	var created bool
	var err error
	var csv []byte
	var regName, regPath string
	ct := r.Header.Get("Content-Type")
	switch {
	case strings.HasPrefix(ct, "application/json"):
		var req registerRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeAPIErr(w, http.StatusBadRequest, CodeBadRequest, "decoding request: %v", err)
			return
		}
		switch {
		case req.Path != "":
			regPath = req.Path
		case req.CSV != "":
			csv, regName = []byte(req.CSV), req.Name
		default:
			writeAPIErr(w, http.StatusBadRequest, CodeBadRequest,
				"request needs either \"path\" or \"csv\"")
			return
		}
	default: // raw CSV upload
		if len(body) == 0 {
			writeAPIErr(w, http.StatusBadRequest, CodeBadRequest, "empty CSV body")
			return
		}
		csv, regName = body, r.URL.Query().Get("name")
	}
	if csv != nil {
		hash := contentHash(csv)
		if s.routeDataset(w, r, hash, body) {
			return
		}
		ds, created, err = s.reg.registerCSV(regName, "upload", csv, hash)
	} else {
		resolved, perr := s.resolveDataPath(regPath)
		if perr != nil {
			writeAPIErr(w, http.StatusForbidden, CodePathForbidden, "%v", perr)
			return
		}
		ds, created, err = s.reg.RegisterPath(resolved)
		if err == nil && s.cfg.Router != nil && !s.cfg.Router.OwnsLocally(ds.Hash) {
			s.cfg.Router.NoteOwnerMove()
		}
	}
	if err != nil {
		switch {
		case errors.Is(err, ErrDatasetLimit), errors.Is(err, ErrStoreWrite):
			writeErrFor(w, err)
		default:
			writeAPIErr(w, http.StatusBadRequest, CodeInvalidDataset, "registering dataset: %v", err)
		}
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, ds)
}

// handleAppendDataset serves POST /v1/datasets/{id}/append: the raw CSV
// body (header line plus rows, same shape as the dataset) is appended,
// the dataset's hash advances and its epoch increments, and the
// post-append dataset is returned.
func (s *Server) handleAppendDataset(w http.ResponseWriter, r *http.Request) {
	if s.jobs.Draining() {
		writeErrFor(w, ErrDraining)
		return
	}
	body, ok := readBody(w, r, s.cfg.MaxUploadBytes, "append")
	if !ok {
		return
	}
	if len(body) == 0 {
		writeAPIErr(w, http.StatusBadRequest, CodeBadRequest, "empty CSV body")
		return
	}
	if s.routeDataset(w, r, r.PathValue("id"), body) {
		return
	}
	ds, err := s.reg.AppendCSV(r.PathValue("id"), body)
	if err != nil {
		writeErrFor(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ds)
}

// listPage is the envelope of the paginated list endpoints: one page
// of items, the corpus total, and the cursor addressing the next page
// (absent on the last page). Pass the cursor back verbatim as ?cursor=
// to continue; cursors are positions in a stable sort order, so they
// survive concurrent mutation without skipping or repeating items.
type listPage struct {
	Items      any    `json:"items"`
	Total      int    `json:"total"`
	NextCursor string `json:"next_cursor,omitempty"`
}

// Pagination bounds for the list endpoints.
const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

// pageParams parses ?limit= and ?cursor=. It reports ok=false after
// writing the 400 for a malformed limit.
func pageParams(w http.ResponseWriter, r *http.Request) (limit int, cursor string, ok bool) {
	limit = defaultPageLimit
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeAPIErr(w, http.StatusBadRequest, CodeBadRequest,
				"limit must be a positive integer, got %q", raw)
			return 0, "", false
		}
		limit = min(n, maxPageLimit)
	}
	return limit, r.URL.Query().Get("cursor"), true
}

// datasetItem is one dataset list entry: the dataset plus, in router
// mode, the id of the node the rendezvous table names as its owner.
type datasetItem struct {
	*Dataset
	Node string `json:"node,omitempty"`
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	limit, cursor, ok := pageParams(w, r)
	if !ok {
		return
	}
	page, next, total := s.reg.Page(cursor, limit)
	items := make([]datasetItem, 0, len(page))
	for _, ds := range page {
		items = append(items, datasetItem{Dataset: ds, Node: s.ownerOf(ds.Hash)})
	}
	writeJSON(w, http.StatusOK, listPage{Items: items, Total: total, NextCursor: next})
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	if s.routeDataset(w, r, r.PathValue("id"), nil) {
		return
	}
	ds, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeAPIErr(w, http.StatusNotFound, CodeDatasetNotFound,
			"unknown dataset %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, ds)
}

// submitRequest is the JSON form of POST /v1/jobs.
type submitRequest struct {
	Dataset string      `json:"dataset"`
	Task    string      `json:"task"`
	Params  task.Params `json:"params"`
	// Priority selects the queue class: "interactive" (the default) or
	// "batch"; every queued interactive job runs before any batch job.
	Priority string `json:"priority,omitempty"`
}

// maxJobBodyBytes bounds POST /v1/jobs request bodies; submissions are
// small JSON documents, far below dataset uploads.
const maxJobBodyBytes = 1 << 20

// tenantOf extracts the request's admission key from the X-Tenant
// header (DefaultTenant when absent).
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return DefaultTenant
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxJobBodyBytes, "job submission")
	if !ok {
		return
	}
	var req submitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeAPIErr(w, http.StatusBadRequest, CodeBadRequest, "decoding request: %v", err)
		return
	}
	if req.Dataset == "" || req.Task == "" {
		writeAPIErr(w, http.StatusBadRequest, CodeBadRequest,
			"request needs \"dataset\" and \"task\"")
		return
	}
	priority, err := ParsePriority(req.Priority)
	if err != nil {
		writeAPIErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	// In router mode the job runs where its dataset lives: the
	// submission is proxied to the rendezvous owner, whose tag in the
	// returned job id routes later polls straight there.
	if s.routeDataset(w, r, req.Dataset, body) {
		return
	}
	job, err := s.jobs.SubmitAs(tenantOf(r), priority, req.Dataset, req.Task, req.Params)
	if err != nil {
		writeErrFor(w, err)
		return
	}
	code := http.StatusAccepted
	if job.State == StateDone { // served from the artifact cache
		code = http.StatusOK
	}
	writeBytes(w, code, job.View)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	limit, cursor, ok := pageParams(w, r)
	if !ok {
		return
	}
	views, next, total := s.jobs.Page(cursor, limit)
	writeBytes(w, http.StatusOK, jobPage(views, s.nodeID(), total, next))
}

// jobPage assembles a GET /v1/jobs page from the jobs' view bytes: what
// writeJSON writes for a listPage whose items are the views, each with
// a "node" field last naming this node in router mode (job records are
// node-local, so the listing node is the owning node).
func jobPage(views [][]byte, node string, total int, next string) []byte {
	// Each item is its view up to the closing "\n}\n", nested, then end.
	const item = indent + indent // inside the page object and its items array
	end := []byte("\n" + item + "}")
	if node != "" {
		quoted, _ := json.Marshal(node)
		end = append(append([]byte(",\n"+item+indent+`"node": `), quoted...), end...)
	}
	n := 64 + len(next)
	for _, v := range views {
		n += len(v) + len(item)*bytes.Count(v, []byte("\n")) + len(end) + len(",\n"+item)
	}
	b := make([]byte, 0, n)
	b = append(b, "{\n"+indent+`"items": [`...)
	for i, v := range views {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n"+item...)
		b = appendNested(b, v[:len(v)-3], item)
		b = append(b, end...)
	}
	if len(views) > 0 {
		b = append(b, "\n"+indent...)
	}
	b = append(b, "],\n"+indent+`"total": `...)
	b = strconv.AppendInt(b, int64(total), 10)
	if next != "" {
		quoted, _ := json.Marshal(next)
		b = append(b, ",\n"+indent+`"next_cursor": `...)
		b = append(b, quoted...)
	}
	return append(b, "\n}\n"...)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	if s.routeJob(w, r, r.PathValue("id")) {
		return
	}
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeAPIErr(w, http.StatusNotFound, CodeJobNotFound,
			"unknown job %q", r.PathValue("id"))
		return
	}
	writeBytes(w, http.StatusOK, job.View)
}

// served returns an artifact's served form: its compact encoding
// indented as the value of a top-level field of a writeJSON response,
// which is where resultBody places it. It reports false for bytes that
// are not JSON.
func served(compact []byte) (json.RawMessage, bool) {
	var b bytes.Buffer
	if json.Indent(&b, compact, indent, indent) != nil {
		return nil, false
	}
	return bytes.Clone(b.Bytes()), true // exact size: the entry may live as long as the daemon
}

// resultBody assembles a /result response from the job's view bytes and
// the artifact's served form (Cache.Put; nil for a failed or canceled
// job): {"job": view, "result": artifact} as writeJSON writes it, without
// re-encoding either on every request.
func resultBody(view []byte, artifact json.RawMessage) []byte {
	if artifact == nil {
		artifact = json.RawMessage("null")
	}
	const open, mid, end = "{\n" + indent + `"job": `, ",\n" + indent + `"result": `, "\n}\n"
	b := make([]byte, 0, len(open)+len(view)+len(indent)*bytes.Count(view, []byte("\n"))+len(mid)+len(artifact)+len(end))
	b = append(b, open...)
	b = appendNested(b, view[:len(view)-1], indent)
	b = append(b, mid...)
	b = append(b, artifact...)
	return append(b, end...)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if s.routeJob(w, r, r.PathValue("id")) {
		return
	}
	res, job, ok := s.jobs.Result(r.PathValue("id"))
	if !ok {
		writeAPIErr(w, http.StatusNotFound, CodeJobNotFound,
			"unknown job %q", r.PathValue("id"))
		return
	}
	switch job.State {
	case StateDone:
		writeBytes(w, http.StatusOK, resultBody(job.View, res))
	case StateFailed, StateCanceled:
		writeBytes(w, http.StatusConflict, resultBody(job.View, nil))
	default:
		writeAPIErr(w, http.StatusConflict, CodeJobRunning,
			"job %s is %s; poll GET /v1/jobs/%s until done", job.ID, job.State, job.ID)
	}
}

// jobTrace wraps a terminal job's per-stage timings with its metadata.
type jobTrace struct {
	Job   JobView         `json:"job"`
	Trace obs.TraceReport `json:"trace"`
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	if s.routeJob(w, r, r.PathValue("id")) {
		return
	}
	rep, view, ok := s.jobs.Trace(r.PathValue("id"))
	if !ok {
		writeAPIErr(w, http.StatusNotFound, CodeJobNotFound,
			"unknown job %q", r.PathValue("id"))
		return
	}
	if !view.State.Terminal() {
		writeAPIErr(w, http.StatusConflict, CodeJobRunning,
			"job %s is %s; its trace is available once it finishes", view.ID, view.State)
		return
	}
	writeJSON(w, http.StatusOK, jobTrace{Job: view, Trace: rep})
}

// handleMetrics serves the Prometheus text exposition: the process-wide
// engine metrics (AIB, LIMBO, pipeline stages) followed by this server's
// own request, job, cache, dataset, and durable-store metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.Default.WriteText(w); err != nil {
		return
	}
	_ = s.metrics.WriteText(w)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	if s.routeJob(w, r, r.PathValue("id")) {
		return
	}
	view, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		writeAPIErr(w, http.StatusNotFound, CodeJobNotFound,
			"unknown job %q", r.PathValue("id"))
		return
	}
	writeBytes(w, http.StatusOK, view)
}

// healthz is the liveness and stats payload. It is always node-local:
// even in router mode it reports the node that answered, never a peer
// — the prober depends on that, and so does any operator reading one
// replica's health.
type healthz struct {
	Status   string        `json:"status"`
	Draining bool          `json:"draining"`
	Datasets int           `json:"datasets"`
	Jobs     int           `json:"jobs"`
	Cache    CacheStats    `json:"cache"`
	Store    *storeStats   `json:"store,omitempty"`
	Node     string        `json:"node,omitempty"`
	Cluster  *clusterStats `json:"cluster,omitempty"`
}

// clusterStats is the healthz summary of the node's cluster view
// (present only in router mode).
type clusterStats struct {
	Peers        int `json:"peers"`
	HealthyPeers int `json:"healthy_peers"`
}

// storeStats is the healthz summary of the durable store (present only
// when the server runs with persistence).
type storeStats struct {
	RecoveredDatasets int `json:"recovered_datasets"`
	RecoveredJobs     int `json:"recovered_jobs"`
	RecoveredArts     int `json:"recovered_artifacts"`
	DroppedJobRecords int `json:"dropped_job_records"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := healthz{
		Status:   "ok",
		Draining: s.jobs.Draining(),
		Datasets: s.reg.Len(),
		Jobs:     s.jobs.Len(),
		Cache:    s.cache.Stats(),
	}
	if st := s.cfg.Store; st != nil {
		t := st.Stats()
		recovered, _ := s.reg.Recovered()
		h.Store = &storeStats{
			RecoveredDatasets: recovered,
			RecoveredJobs:     t.RecoveredJobs,
			RecoveredArts:     t.RecoveredArtifacts,
			DroppedJobRecords: t.DroppedJobRecords,
		}
	}
	if rt := s.cfg.Router; rt != nil {
		h.Node = rt.Self().ID
		h.Cluster = &clusterStats{
			Peers:        rt.Table().Len(),
			HealthyPeers: rt.Prober().HealthyCount(),
		}
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleListTasks(w http.ResponseWriter, r *http.Request) {
	type taskInfo struct {
		Name     string `json:"name"`
		Synopsis string `json:"synopsis"`
		Runnable bool   `json:"runnable"`
		// Paged marks tasks that can also run over "storage":"paged"
		// (colstore-backed) datasets: every one that runs as a job.
		Paged bool `json:"paged"`
	}
	out := make([]taskInfo, 0, len(task.Specs))
	for _, sp := range task.Specs {
		out = append(out, taskInfo{Name: sp.Name, Synopsis: sp.Synopsis, Runnable: !sp.MultiFile, Paged: !sp.MultiFile})
	}
	writeJSON(w, http.StatusOK, out)
}
