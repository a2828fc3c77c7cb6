package ib

import "structmine/internal/obs"

// Engine metrics, registered on the process-wide registry and served by
// structmined's GET /v1/metrics. Updates are single atomic operations on
// the per-merge path (never inside the δI inner loops), so the
// instrumented engine stays within noise of the uninstrumented one —
// scripts/benchcmp.sh holds it to the BENCH_1.json baseline.
var (
	aibMerges = obs.Default.Counter("structmine_aib_merges_total",
		"AIB cluster merges performed by the parallel engine.")
	aibHeapSize = obs.Default.Gauge("structmine_aib_heap_size",
		"Candidate-queue length (live + stale entries) after the most recent AIB merge step.")
	aibCompactions = obs.Default.Counter("structmine_aib_compactions_total",
		"Stale-entry compactions of the AIB candidate queue.")
)
