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
