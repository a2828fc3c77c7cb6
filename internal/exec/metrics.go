package exec

import (
	"time"

	"structmine/internal/obs"
)

// Engine metrics on the process-wide registry, served by structmined's
// GET /v1/metrics. They make the fairness story observable rather than
// asserted: grants and granted workers show the budget split, queue
// wait shows whether small jobs stall behind heavy ones, steals show
// the chunk handout correcting skew, and the arena high-water mark
// bounds scratch memory across concurrent jobs.
var (
	execGrantsTotal = obs.Default.Counter("structmine_exec_budget_grants_total",
		"Worker-budget grants issued by the execution scheduler.")
	execActiveGrants = obs.Default.Gauge("structmine_exec_active_grants",
		"Jobs currently holding a worker-budget grant.")
	execGrantedWorkers = obs.Default.Gauge("structmine_exec_granted_workers",
		"Total workers currently allotted across live grants (may exceed capacity when oversubscribed; every grant keeps at least one).")
	execSteals = obs.Default.CounterVec("structmine_exec_steals_total",
		"Chunks executed by a worker outside its home range during work-stealing fan-outs.", "kernel")
	execQueueWait = obs.Default.Histogram("structmine_exec_queue_wait_seconds",
		"Time from job submission to budget grant (queue wait).", obs.TimeBuckets)
	execArenaCheckouts = obs.Default.Counter("structmine_exec_arena_checkouts_total",
		"Arenas checked out of the process pool.")
)

func init() {
	obs.Default.GaugeFunc("structmine_exec_arena_highwater_bytes",
		"Largest per-job arena carve volume seen since process start, in bytes.",
		func() float64 { return float64(arenaHighwater.Load()) })
	obs.Default.GaugeFunc("structmine_exec_arena_retained_bytes",
		"Slab bytes the pooled arenas hold for reuse (off the Go heap where mapped; counted in RSS, not in GOMEMLIMIT).",
		func() float64 { r, _ := ArenaSlabBytes(); return float64(r) })
	obs.Default.CounterFunc("structmine_exec_arena_mapped_bytes_total",
		"Slab bytes mapped outside the Go heap for pooled arenas.",
		func() float64 { _, m := ArenaSlabBytes(); return float64(m) })
}

// ArenaSlabBytes returns the slab bytes the pooled arenas retain and
// the part of them mapped outside the Go heap. The runtime's memory
// statistics see only the rest.
func ArenaSlabBytes() (retained, mapped int64) {
	return retainedBytes.Load(), mappedBytes.Load()
}

// countSteals records n stolen chunks for a kernel's fan-out; callers
// batch per worker so the hot loop carries no metric traffic.
func countSteals(k Kernel, n int) {
	if n > 0 {
		execSteals.With(k.String()).Add(uint64(n))
	}
}

// ObserveQueueWait records the submit→grant latency of one job.
func ObserveQueueWait(d time.Duration) {
	execQueueWait.Observe(d.Seconds())
}
