package task

import "context"

// State kinds: the incremental-mining artifacts a StateStore keeps per
// dataset epoch.
const (
	// StateFDs is an fd.MineState encoding (EncodeState).
	StateFDs = "fds"
	// StateTree is a Phase 1 partition tree encoding (limbo.EncodeTree).
	StateTree = "tree"
)

// StateStore loads and saves per-dataset incremental mining state. Load
// must return ok=false for anything unusable (missing, stale epoch,
// corrupt) — the runner then mines from scratch and overwrites it. Save
// failures are the store's problem to record; runners treat state
// persistence as best-effort because the mined result never depends on
// it.
type StateStore interface {
	LoadState(kind string) ([]byte, bool)
	SaveState(kind string, data []byte)
}

// runState is what WithState hangs on the context for one run: the
// store, and whether a runner took the delta path (RunColumns reads it
// back to time delta re-mines).
type runState struct {
	store StateStore
	delta bool
}

type stateKey struct{}

// WithState returns a context under which one RunColumns call re-mines
// incrementally: the tasks with delta support (mine-fds, rank-fds,
// partition) consume the dataset's persisted mining state and re-mine
// only what an append could have changed — on any relation.Columns,
// resident or paged — falling back to, and indistinguishable from, a
// scratch run whenever the state is missing or unusable, and leave fresh
// state behind. Without it nothing is loaded, built or saved.
func WithState(ctx context.Context, ss StateStore) context.Context {
	return context.WithValue(ctx, stateKey{}, &runState{store: ss})
}

func stateOf(ctx context.Context) *runState {
	st, _ := ctx.Value(stateKey{}).(*runState)
	return st
}

// KindTupleSummary names the one derived intermediate jobs share so far:
// the threshold-bounded Phase 1 pass over the tuples (tuples.Summary,
// EncodeSummary bytes) that dedup and double clustering both read. It is
// a cache kind, not a task — absent from Specs, so it can be neither
// submitted nor served as a job result — and Params.Normalize keeps its
// φT, the knob the summary depends on.
const KindTupleSummary = "tuple-summary"

// Intermediates holds derived intermediates for one dataset epoch, by
// kind and parameters. Like mine-state it is best-effort on both sides:
// Load returns ok=false for anything it does not hold, the runner checks
// what it is handed and rebuilds (and overwrites) whatever it cannot
// use, and no result ever depends on it.
type Intermediates interface {
	LoadIntermediate(kind string, p Params) ([]byte, bool)
	SaveIntermediate(kind string, p Params, data []byte)
}

type intermediatesKey struct{}

// WithIntermediates returns a context under which runners that share an
// intermediate ask im for it before building it, and leave it there
// after. Without it every run builds what it needs; the result is the
// same either way.
func WithIntermediates(ctx context.Context, im Intermediates) context.Context {
	return context.WithValue(ctx, intermediatesKey{}, im)
}

func intermediatesOf(ctx context.Context) Intermediates {
	im, _ := ctx.Value(intermediatesKey{}).(Intermediates)
	return im
}
