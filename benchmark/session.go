package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// pollInterval is the fixed sleep between two GET /v1/jobs/{id} polls of
// one job. Job latencies are therefore quantised to about this much.
const pollInterval = 2 * time.Millisecond

// requestTimeout bounds one HTTP request; jobTimeout bounds the wait for
// one job to reach a terminal state. Exceeding either fails the session.
const (
	requestTimeout = 60 * time.Second
	jobTimeout     = 120 * time.Second
)

// newClient returns the one keep-alive client a run uses: as many
// connections per host as there are closed-loop callers.
func newClient(callers int) *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     callers,
			MaxIdleConnsPerHost: callers,
			DisableCompression:  true,
		},
	}
}

// statusCounts tallies the refusals a run saw.
type statusCounts struct{ s429, s5xx int }

func (c *statusCounts) note(status int) {
	switch {
	case status == http.StatusTooManyRequests:
		c.s429++
	case status >= 500:
		c.s5xx++
	}
}

// call sends one request and reads the whole response. The duration runs
// from just before the request is written to the last body byte read.
func call(c *http.Client, method, url, contentType string, body []byte) (status int, data []byte, d time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(start), err
}

// question is one (task, params) pair an analyst asks of a dataset.
type question struct {
	Task   string          `json:"task"`
	Params json.RawMessage `json:"params,omitempty"`
}

func (q question) String() string {
	if len(q.Params) == 0 {
		return q.Task
	}
	return q.Task + string(q.Params)
}

// submitBody is the POST /v1/jobs body asking q of a dataset.
func submitBody(dataset string, q question) []byte {
	body, err := json.Marshal(struct {
		Dataset string `json:"dataset"`
		question
	}{dataset, q})
	if err != nil {
		panic(err) // a string and two fields that marshal by construction
	}
	return body
}

// jobView is the part of the daemon's job JSON the harness reads.
type jobView struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Error    string `json:"error"`
	CacheHit bool   `json:"cache_hit"`
}

// datasetView is the part of the daemon's dataset JSON the harness reads.
type datasetView struct {
	ID      string `json:"id"`
	Hash    string `json:"hash"`
	Epoch   int    `json:"epoch"`
	Storage string `json:"storage"`
	Node    string `json:"node"`
}

// answer is one question's outcome within a session.
type answer struct {
	q        question
	ms       float64 // POST /v1/jobs → last artifact byte
	polls    int
	envelope []byte // body of GET /v1/jobs/{id}/result
}

// sessionResult is what one cold session observed.
type sessionResult struct {
	index      int
	ms         float64 // first request byte → last artifact byte
	registerMS float64
	appendMS   float64 // 0 when the workload does not append
	answers    []answer
	err        error // non-nil = failed session
}

// ask submits one question, polls it to a terminal state and fetches the
// artifact. wantHit states whether the submission must be a cache hit.
func ask(c *http.Client, base, dataset string, q question, wantHit bool, sc *statusCounts) (answer, error) {
	a := answer{q: q}
	body := submitBody(dataset, q)
	start := time.Now()
	status, data, _, err := call(c, "POST", base+"/v1/jobs", "application/json", body)
	if err != nil {
		return a, fmt.Errorf("submit %s: %w", q, err)
	}
	sc.note(status)
	if status != http.StatusOK && status != http.StatusAccepted {
		return a, fmt.Errorf("submit %s: status %d: %s", q, status, firstLine(data))
	}
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil {
		return a, fmt.Errorf("submit %s: %w", q, err)
	}
	if v.CacheHit != wantHit {
		return a, fmt.Errorf("submit %s: cache_hit=%t, want %t", q, v.CacheHit, wantHit)
	}
	deadline := start.Add(jobTimeout)
	for v.State == "queued" || v.State == "running" {
		if time.Now().After(deadline) {
			return a, fmt.Errorf("job %s (%s) still %s after %s", v.ID, q, v.State, jobTimeout)
		}
		time.Sleep(pollInterval)
		status, data, _, err = call(c, "GET", base+"/v1/jobs/"+v.ID, "", nil)
		if err != nil {
			return a, fmt.Errorf("poll %s: %w", v.ID, err)
		}
		sc.note(status)
		if status != http.StatusOK {
			return a, fmt.Errorf("poll %s: status %d: %s", v.ID, status, firstLine(data))
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return a, fmt.Errorf("poll %s: %w", v.ID, err)
		}
		a.polls++
	}
	if v.State != "done" {
		return a, fmt.Errorf("job %s (%s) ended %s: %s", v.ID, q, v.State, v.Error)
	}
	status, data, _, err = call(c, "GET", base+"/v1/jobs/"+v.ID+"/result", "", nil)
	if err != nil {
		return a, fmt.Errorf("result %s: %w", v.ID, err)
	}
	sc.note(status)
	if status != http.StatusOK {
		return a, fmt.Errorf("result %s: status %d: %s", v.ID, status, firstLine(data))
	}
	a.ms = msSince(start)
	a.envelope = data
	return a, nil
}

// coldSession runs one analyst session against a dataset the daemon has
// never seen: upload, ask every question, and — when the workload
// appends — append the body and ask the follow-up questions.
func coldSession(c *http.Client, base string, w *coldWorkload, in *coldInput, index int, sc *statusCounts) sessionResult {
	res := sessionResult{index: index}
	// Bodies are prepared before the clock starts.
	csv := in.sessionCSV(index)
	var appendBody []byte
	if len(w.afterAppend) > 0 {
		appendBody = in.sessionAppend(index)
	}
	start := time.Now()
	status, data, d, err := call(c, "POST", base+"/v1/datasets?name="+datasetName, "text/csv", csv)
	if err != nil {
		res.err = fmt.Errorf("register: %w", err)
		return res
	}
	sc.note(status)
	res.registerMS = ms(d)
	if status != http.StatusCreated {
		// 200 would mean the content was already registered: not cold.
		res.err = fmt.Errorf("register: status %d, want 201: %s", status, firstLine(data))
		return res
	}
	var ds datasetView
	if err := json.Unmarshal(data, &ds); err != nil {
		res.err = fmt.Errorf("register: %w", err)
		return res
	}
	if ds.Storage != w.storage {
		res.err = fmt.Errorf("register: storage %q, want %q", ds.Storage, w.storage)
		return res
	}
	for _, q := range w.questions {
		a, err := ask(c, base, ds.ID, q, false, sc)
		if err != nil {
			res.err = err
			return res
		}
		res.answers = append(res.answers, a)
	}
	if len(w.afterAppend) > 0 {
		status, data, d, err := call(c, "POST", base+"/v1/datasets/"+ds.ID+"/append", "text/csv", appendBody)
		if err != nil {
			res.err = fmt.Errorf("append: %w", err)
			return res
		}
		sc.note(status)
		res.appendMS = ms(d)
		if status != http.StatusOK {
			res.err = fmt.Errorf("append: status %d: %s", status, firstLine(data))
			return res
		}
		for _, q := range w.afterAppend {
			a, err := ask(c, base, ds.ID, q, false, sc)
			if err != nil {
				res.err = err
				return res
			}
			res.answers = append(res.answers, a)
		}
	}
	res.ms = msSince(start)
	return res
}

func ms(d time.Duration) float64       { return float64(d) / float64(time.Millisecond) }
func msSince(t time.Time) float64      { return ms(time.Since(t)) }
func secondsSince(t time.Time) float64 { return time.Since(t).Seconds() }

func firstLine(b []byte) string {
	b = bytes.TrimSpace(b)
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.ReplaceAll(b, []byte("\n"), []byte(" ")))
}

// getJSON fetches url and decodes the 200 response into v.
func getJSON(c *http.Client, url string, v any) error {
	status, data, _, err := call(c, "GET", url, "", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, status, firstLine(data))
	}
	return json.Unmarshal(data, v)
}

// scrape fetches and parses a node's /v1/metrics.
func scrape(c *http.Client, base string) (promText, error) {
	status, data, _, err := call(c, "GET", base+"/v1/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", status)
	}
	return parseProm(string(data))
}

// waitHealthy polls /v1/healthz until it answers 200 with at least
// wantPeers healthy peers (0 outside cluster mode).
func waitHealthy(c *http.Client, base string, wantPeers int, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		var h struct {
			Status  string `json:"status"`
			Cluster *struct {
				HealthyPeers int `json:"healthy_peers"`
			} `json:"cluster"`
		}
		err := getJSON(c, base+"/v1/healthz", &h)
		if err == nil && h.Status == "ok" && (wantPeers == 0 || (h.Cluster != nil && h.Cluster.HealthyPeers >= wantPeers)) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy within %s (last error: %v)", base, within, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
