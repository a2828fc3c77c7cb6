// Package obs is the zero-dependency observability layer shared by the
// mining engines, the task pipeline, and the structmined daemon. It has
// two halves:
//
//   - a metrics registry (metrics.go): counters, gauges, and histograms
//     with fixed log-scale buckets, optionally split by one label
//     dimension, rendered in the Prometheus text exposition format;
//   - a stage tracer (trace.go): per-run trace buffers recording the
//     wall time of each pipeline stage, carried through context so the
//     engines need no knowledge of who is watching.
//
// Metric updates are lock-free atomic operations, cheap enough to sit on
// the per-merge and per-insert paths of the engines; registration and
// rendering take the registry lock. The package-wide Default registry
// holds the engine metrics; the server adds its own registry on top and
// renders both on GET /v1/metrics.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry the engine metrics register on.
var Default = NewRegistry()

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous integer-valued measurement.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add shifts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets with cumulative
// ≤-bound semantics (the Prometheus `le` convention: an observation
// exactly on a bound falls into that bound's bucket).
type Histogram struct {
	bounds []float64       // strictly increasing upper bounds
	counts []atomic.Uint64 // len(bounds)+1; the last is the +Inf overflow
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound ≥ v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// element is the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// LogBuckets returns count strictly increasing bucket bounds starting at
// start and growing by factor — the fixed log-scale ladder every
// histogram in this repo uses.
func LogBuckets(start, factor float64, count int) []float64 {
	if count < 1 || start <= 0 || factor <= 1 {
		panic("obs: LogBuckets needs start > 0, factor > 1, count ≥ 1")
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// TimeBuckets is the default latency ladder in seconds: 10 µs to ~42 s
// by powers of 4 — wide enough for both a DCF-tree insert (microseconds)
// and a full rank-fds job (seconds).
var TimeBuckets = LogBuckets(10e-6, 4, 12)

// Sample is one label-split value emitted by a func-backed metric.
type Sample struct {
	Label string
	Value float64
}

// family is one named metric and all of its label children.
type family struct {
	name, help, typ string // typ: "counter" | "gauge" | "histogram"
	labelKey        string // "" for unlabeled metrics

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	bounds   []float64       // histogram families only
	fn       func() []Sample // func-backed families only
}

// Registry holds metric families and renders them as Prometheus text.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

func (r *Registry) register(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prior, ok := r.byName[f.name]; ok {
		if prior.typ != f.typ || prior.labelKey != f.labelKey {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", f.name))
		}
		return prior
	}
	r.families = append(r.families, f)
	r.byName[f.name] = f
	return f
}

// Counter registers (or returns the existing) unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(&family{name: name, help: help, typ: "counter", counters: map[string]*Counter{}})
	return f.counter("")
}

// Gauge registers (or returns the existing) unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(&family{name: name, help: help, typ: "gauge", gauges: map[string]*Gauge{}})
	return f.gauge("")
}

// Histogram registers (or returns the existing) unlabeled histogram with
// the given bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.register(&family{name: name, help: help, typ: "histogram", bounds: bounds, hists: map[string]*Histogram{}})
	return f.hist("")
}

// CounterVec registers a counter family split by one label key.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	f := r.register(&family{name: name, help: help, typ: "counter", labelKey: labelKey, counters: map[string]*Counter{}})
	return &CounterVec{f: f}
}

// GaugeVec registers a gauge family split by one label key.
func (r *Registry) GaugeVec(name, help, labelKey string) *GaugeVec {
	f := r.register(&family{name: name, help: help, typ: "gauge", labelKey: labelKey, gauges: map[string]*Gauge{}})
	return &GaugeVec{f: f}
}

// HistogramVec registers a histogram family split by one label key.
func (r *Registry) HistogramVec(name, help, labelKey string, bounds []float64) *HistogramVec {
	f := r.register(&family{name: name, help: help, typ: "histogram", labelKey: labelKey, bounds: bounds, hists: map[string]*Histogram{}})
	return &HistogramVec{f: f}
}

// GaugeFunc registers a gauge whose value is read at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "gauge",
		fn: func() []Sample { return []Sample{{Value: fn()}} }})
}

// CounterFunc registers a counter whose value is read at render time
// (the source must be monotonic, e.g. an external hit counter).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "counter",
		fn: func() []Sample { return []Sample{{Value: fn()}} }})
}

// GaugeSamplesFunc registers a label-split gauge whose samples are read
// at render time (e.g. job counts by state).
func (r *Registry) GaugeSamplesFunc(name, help, labelKey string, fn func() []Sample) {
	r.register(&family{name: name, help: help, typ: "gauge", labelKey: labelKey, fn: fn})
}

func (f *family) counter(label string) *Counter {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.counters[label]
	if !ok {
		c = &Counter{}
		f.counters[label] = c
	}
	return c
}

func (f *family) gauge(label string) *Gauge {
	f.mu.Lock()
	defer f.mu.Unlock()
	g, ok := f.gauges[label]
	if !ok {
		g = &Gauge{}
		f.gauges[label] = g
	}
	return g
}

func (f *family) hist(label string) *Histogram {
	f.mu.Lock()
	defer f.mu.Unlock()
	h, ok := f.hists[label]
	if !ok {
		h = newHistogram(f.bounds)
		f.hists[label] = h
	}
	return h
}

// CounterVec hands out per-label counters.
type CounterVec struct{ f *family }

// With returns the counter for one label value.
func (v *CounterVec) With(label string) *Counter { return v.f.counter(label) }

// GaugeVec hands out per-label gauges.
type GaugeVec struct{ f *family }

// With returns the gauge for one label value.
func (v *GaugeVec) With(label string) *Gauge { return v.f.gauge(label) }

// HistogramVec hands out per-label histograms sharing one bucket ladder.
type HistogramVec struct{ f *family }

// With returns the histogram for one label value.
func (v *HistogramVec) With(label string) *Histogram { return v.f.hist(label) }

// --- Prometheus text exposition ---

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelPair renders {key="value"} (empty when the family is unlabeled),
// with extra appended inside the braces (used for histogram le bounds).
func labelPair(key, value, extra string) string {
	var parts []string
	if key != "" {
		parts = append(parts, key+`="`+labelEscaper.Replace(value)+`"`)
	}
	if extra != "" {
		parts = append(parts, extra)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// sortedKeys returns the map's keys in lexicographic order so rendering
// is deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteText renders every family in the Prometheus text exposition
// format (version 0.0.4), families in registration order, label children
// in lexicographic order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		if err := f.writeText(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
		return err
	}
	if f.fn != nil {
		for _, s := range f.fn() {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelPair(f.labelKey, s.Label, ""), formatFloat(s.Value)); err != nil {
				return err
			}
		}
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	switch f.typ {
	case "counter":
		for _, label := range sortedKeys(f.counters) {
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelPair(f.labelKey, label, ""), f.counters[label].Value()); err != nil {
				return err
			}
		}
	case "gauge":
		for _, label := range sortedKeys(f.gauges) {
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelPair(f.labelKey, label, ""), f.gauges[label].Value()); err != nil {
				return err
			}
		}
	case "histogram":
		for _, label := range sortedKeys(f.hists) {
			h := f.hists[label]
			cum := uint64(0)
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				le := `le="` + formatFloat(bound) + `"`
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelPair(f.labelKey, label, le), cum); err != nil {
					return err
				}
			}
			cum += h.counts[len(h.bounds)].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelPair(f.labelKey, label, `le="+Inf"`), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
				f.name, labelPair(f.labelKey, label, ""), formatFloat(h.Sum()),
				f.name, labelPair(f.labelKey, label, ""), cum); err != nil {
				return err
			}
		}
	}
	return nil
}
