package obs

// Append and delta re-mining instrumentation. The counters advance in
// the server's append path; the histogram times mine jobs that were
// served by a delta path (absorbing only appended tuples) rather than a
// from-scratch run.
var (
	// AppendRows counts tuples added through dataset appends.
	AppendRows = Default.Counter("structmine_append_rows_total",
		"Tuples appended to registered datasets.")
	// AppendEpochs counts applied appends — each bumps its dataset's
	// epoch. Crash-recovery replays are counted separately, on the
	// store's structmine_store_append_replays_total.
	AppendEpochs = Default.Counter("structmine_append_epochs_total",
		"Dataset epoch bumps (appends applied over the API).")
	// DeltaRemineSeconds times mine jobs answered by delta re-mining.
	DeltaRemineSeconds = Default.Histogram("structmine_append_delta_remine_seconds",
		"Duration of re-mine runs that took a delta path over a previous epoch's mine-state.", TimeBuckets)
)

// The reasons an FD re-mine under an intermediates hook gave up on the delta
// path and mined from scratch: the label values of DeltaFallbacks.
const (
	FallbackNoState      = "no_state"      // no state left for the dataset yet
	FallbackCorruptState = "corrupt_state" // the state's bytes did not decode
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
	"FD re-mines under an intermediates hook that fell back to mining from scratch, by reason.", "reason")

func init() {
	for _, reason := range DeltaFallbackReasons {
		DeltaFallbacks.With(reason)
	}
}
