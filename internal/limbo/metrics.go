package limbo

import "structmine/internal/obs"

// LIMBO metrics, registered on the process-wide registry and served by
// structmined's GET /v1/metrics. The tree gauges are last-writer-wins
// snapshots: when several trees are being built concurrently they
// describe the most recently updated one, which is the intended
// process-level view (one daemon job at a time dominates the tree).
var (
	limboTreeNodes = obs.Default.Gauge("structmine_limbo_dcf_tree_nodes",
		"Node count of the most recently updated DCF-tree.")
	limboTreeHeight = obs.Default.Gauge("structmine_limbo_dcf_tree_height",
		"Height (root to leaf levels) of the most recently updated DCF-tree.")
	limboInserts = obs.Default.Counter("structmine_limbo_inserts_total",
		"Objects streamed into DCF-trees during Phase 1.")
	limboRebuilds = obs.Default.Counter("structmine_limbo_rebuilds_total",
		"Adaptive-threshold DCF-tree rebuilds (MaxLeafEntries mode).")
	limboInsertSeconds = obs.Default.Histogram("structmine_limbo_insert_seconds",
		"Phase 1 per-object insert latency, including any adaptive rebuild it triggers.",
		obs.TimeBuckets)
	limboScratchHighwater = obs.Default.Gauge("structmine_limbo_dcf_scratch_highwater_entries",
		"High-water capacity (entries) of the most recently updated DCF-tree's reusable merge scratch — the resident cost of allocation-free absorption.")
	limboAssignObjects = obs.Default.Counter("structmine_limbo_assign_objects_total",
		"Objects associated with their closest representative during Phase 3.")
	limboAssignTerms = obs.Default.Counter("structmine_limbo_assign_terms_total",
		"Posting terms (one shared coordinate of an object and a representative) Phase 3 evaluated.")
)
