package obs

// The outcomes of a job's request for the Phase 1 tuple summary: the
// label values of TupleSummaries.
const (
	SummaryBuilt    = "built"    // the tree was built (nothing held, no hook, or after a rejection)
	SummaryReused   = "reused"   // an earlier job's summary was decoded instead of building the tree
	SummaryRejected = "rejected" // held bytes did not decode, or were built for another n, m, φT or B
)

// TupleSummaryOutcomes is that closed set; every member is exposed on
// TupleSummaries from the start, at zero.
var TupleSummaryOutcomes = []string{SummaryBuilt, SummaryReused, SummaryRejected}

// TupleSummaries counts what dedup and double clustering did for their
// threshold-bounded Phase 1 pass over the tuples.
var TupleSummaries = Default.CounterVec("structmine_tuple_summary_total",
	"Phase 1 tuple summaries built, reused from an earlier job of the dataset epoch, or rejected on load, by outcome.", "outcome")

func init() {
	for _, outcome := range TupleSummaryOutcomes {
		TupleSummaries.With(outcome)
	}
}
