package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Times are nanoseconds since the tracer started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = a root span
	Session int    `json:"session"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Root spans of one traced session. Everything the server would do for
// the session sits under rootSession, in the server's order. rootReplay
// holds the same tasks again, taken apart into the calls each makes into
// the layers below it. rootProbes holds single calls into layers that
// only run nested inside another layer's public function.
const (
	rootSession = "session"
	rootReplay  = "replay"
	rootProbes  = "probes"
)

// tracer keeps spans in memory; it is used from one goroutine.
type tracer struct {
	t0      time.Time
	spans   []span
	stack   []int
	session int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do records a span named name around fn, as a child of the span that is
// open when it is called.
func (t *tracer) do(name string, fn func()) {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Session: t.session, Name: name})
	t.stack = append(t.stack, id)
	t.spans[id-1].StartNS = int64(time.Since(t.t0))
	fn()
	t.spans[id-1].EndNS = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// root records a root span around fn even while another span is open:
// its time lies inside the open span's interval without being its child.
func (t *tracer) root(name string, fn func()) {
	open := t.stack
	t.stack = nil
	t.do(name, fn)
	t.stack = open
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	doc := map[string]any{"meta": meta, "spans": t.spans}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover. Children may overlap one another (parallel
// calls): the covered part is the union of their intervals, clipped to
// the parent's.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, end := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, end), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// traceSummary is what the per-layer metrics read off a trace.
type traceSummary struct {
	// layerMS is, per span name, the median over sessions of the summed
	// self time of that session's spans of that name.
	layerMS map[string]float64
	// sessionMS is the median duration of the rootSession spans.
	sessionMS float64
	// coverage is the median over sessions of (self time of the layer
	// spans that account for the session) ÷ (duration of the session).
	coverage float64
}

// summarize folds the spans of all traced sessions into per-layer
// medians. A session is accounted for by the layer spans directly under
// rootSession plus those under rootReplay; whole-task spans ("task."
// names that a replay takes apart) and the roots themselves only add
// harness glue and are left out of the coverage numerator.
func summarize(spans []span, decomposed map[string]bool) traceSummary {
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s span) string {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s.Name
	}
	perSession := map[int]map[string]int64{}
	sessionNS := map[int]int64{}
	accounted := map[int]int64{}
	for _, s := range spans {
		if s.Parent == 0 {
			if s.Name == rootSession {
				sessionNS[s.Session] = s.EndNS - s.StartNS
			}
			continue
		}
		m := perSession[s.Session]
		if m == nil {
			m = map[string]int64{}
			perSession[s.Session] = m
		}
		m[s.Name] += self[s.ID]
		root := rootOf(s)
		isReplayGroup := root == rootReplay && strings.HasPrefix(s.Name, rootReplay+".")
		if (root == rootSession && !decomposed[s.Name]) || (root == rootReplay && !isReplayGroup) {
			accounted[s.Session] += self[s.ID]
		}
	}
	sum := traceSummary{layerMS: map[string]float64{}}
	names := map[string]bool{}
	for _, m := range perSession {
		for n := range m {
			names[n] = true
		}
	}
	for n := range names {
		var xs []float64
		for _, m := range perSession {
			xs = append(xs, float64(m[n])/1e6)
		}
		sum.layerMS[n] = median(xs)
	}
	var durs, covs []float64
	for id, ns := range sessionNS {
		durs = append(durs, float64(ns)/1e6)
		if ns > 0 {
			covs = append(covs, float64(accounted[id])/float64(ns))
		}
	}
	sum.sessionMS = median(durs)
	sum.coverage = median(covs)
	return sum
}
