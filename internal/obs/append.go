package obs

// Append and delta re-mining instrumentation. The append counters
// advance in the server's append path; the histogram times the recheck
// of a previous epoch's minimal FD set against the appended tuples, once
// per FD job that resumed that state rather than mining from scratch.
var (
	// AppendRows counts tuples added through dataset appends.
	AppendRows = Default.Counter("structmine_append_rows_total",
		"Tuples appended to registered datasets.")
	// AppendEpochs counts applied appends — each bumps its dataset's
	// epoch. Crash-recovery replays are counted separately, on the
	// store's structmine_store_append_replays_total.
	AppendEpochs = Default.Counter("structmine_append_epochs_total",
		"Dataset epoch bumps (appends applied over the API).")
	// DeltaRemineSeconds times the delta recheck (fd.DiscoverDeltaColumns
	// taking its delta path): one observation per FD job that resumed the
	// FD state, not the whole job.
	DeltaRemineSeconds = Default.Histogram("structmine_append_delta_remine_seconds",
		"Duration of the delta recheck of a previous epoch's FD state against the appended rows, one per FD job that resumed it (not the whole job).", TimeBuckets)
)

// The reasons an FD mine with an FD-state slot (task.WithIntermediates)
// gave up on the delta path and mined from scratch: the label values of
// DeltaFallbacks.
const (
	FallbackNoState      = "no_state"      // no state left for the dataset yet
	FallbackCorruptState = "corrupt_state" // the state's JSON did not decode or names an attribute past its width
	FallbackShape        = "shape"         // state of another width, or of more rows than the dataset has
	FallbackOversized    = "oversized"     // append above fd.DeltaMaxFraction of the data
	FallbackFDBroken     = "fd_broken"     // an appended row violates a previously minimal FD
)

// DeltaFallbackReasons is that closed set; every member is exposed on
// DeltaFallbacks from the start, at zero.
var DeltaFallbackReasons = []string{
	FallbackNoState, FallbackCorruptState, FallbackShape, FallbackOversized, FallbackFDBroken,
}

// DeltaFallbacks counts FD re-mines that fell back to a scratch run.
var DeltaFallbacks = Default.CounterVec("structmine_append_delta_fallback_total",
	"FD mines with an FD-state slot that fell back to mining from scratch, by reason.", "reason")

func init() {
	for _, reason := range DeltaFallbackReasons {
		DeltaFallbacks.With(reason)
	}
}
