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
