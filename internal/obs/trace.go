package obs

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"
)

// StageSeconds aggregates the wall time of every traced pipeline stage
// across the process, split by stage name — the histogram complement of
// the per-run trace buffers.
var StageSeconds = Default.HistogramVec(
	"structmine_stage_seconds",
	"Wall time of traced pipeline stages, by stage name.",
	"stage", TimeBuckets)

// StageTiming is one stage of a finished trace, offsets relative to the
// trace start.
type StageTiming struct {
	Name       string  `json:"name"`
	StartMS    float64 `json:"start_ms"`
	DurationMS float64 `json:"duration_ms"`
}

// TraceReport is the JSON shape of a finished trace, served by the
// daemon's /v1/jobs/{id}/trace endpoint and printed by the CLI's -stats.
type TraceReport struct {
	Stages  []StageTiming `json:"stages"`
	TotalMS float64       `json:"total_ms"`
}

// Trace records a sequence of named, non-overlapping stages. Entering a
// stage closes the previous one; Finish closes the last. Each closed
// stage is also observed into StageSeconds. All methods are safe for
// concurrent use, though stages themselves are sequential by design —
// the pipeline runs one stage at a time.
type Trace struct {
	mu       sync.Mutex
	start    time.Time
	curName  string
	curStart time.Time
	stages   []StageTiming
	finished bool
}

// NewTrace starts an empty trace; the clock starts now.
func NewTrace() *Trace {
	now := time.Now()
	return &Trace{start: now, curStart: now}
}

// Enter closes the current stage (if any) and opens a new one.
func (t *Trace) Enter(name string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.closeLocked(now)
	t.curName = name
	t.curStart = now
	t.mu.Unlock()
}

// closeLocked appends the open stage, observing its duration.
func (t *Trace) closeLocked(now time.Time) {
	if t.curName == "" {
		return
	}
	d := now.Sub(t.curStart)
	t.stages = append(t.stages, StageTiming{
		Name:       t.curName,
		StartMS:    float64(t.curStart.Sub(t.start)) / float64(time.Millisecond),
		DurationMS: float64(d) / float64(time.Millisecond),
	})
	StageSeconds.With(t.curName).Observe(d.Seconds())
	t.curName = ""
}

// Finish closes the last open stage. Idempotent.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.closeLocked(now)
	t.finished = true
	t.mu.Unlock()
}

// Report snapshots the closed stages. TotalMS spans trace start to the
// end of the last closed stage (zero when nothing closed yet).
func (t *Trace) Report() TraceReport {
	if t == nil {
		return TraceReport{Stages: []StageTiming{}}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rep := TraceReport{Stages: append([]StageTiming{}, t.stages...)}
	if n := len(rep.Stages); n > 0 {
		last := rep.Stages[n-1]
		rep.TotalMS = last.StartMS + last.DurationMS
	}
	return rep
}

// WriteStageReport renders the human-readable stage table the CLI's
// -stats flag prints.
func (r TraceReport) WriteStageReport(w io.Writer) {
	fmt.Fprintf(w, "stage timings:\n")
	for _, s := range r.Stages {
		pct := 0.0
		if r.TotalMS > 0 {
			pct = 100 * s.DurationMS / r.TotalMS
		}
		fmt.Fprintf(w, "  %-36s %10.2fms  %5.1f%%\n", s.Name, s.DurationMS, pct)
	}
	fmt.Fprintf(w, "  %-36s %10.2fms\n", "total", r.TotalMS)
}

type traceKey struct{}

// WithTrace attaches a trace to the context; pipeline stages reached
// through this context record themselves on it.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil when none is attached.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// Stage enters a named stage on the context's trace, if any — the
// one-line hook the task pipeline calls at each stage boundary. It is a
// no-op (beyond the context lookup) on untraced runs.
func Stage(ctx context.Context, name string) {
	TraceFrom(ctx).Enter(name)
}
