package task

import "context"

// KindFDState is the one intermediate kind: what a job leaves behind for
// the next jobs of its dataset to read instead of recomputing — the
// minimal FD set of mine-fds, rank-fds, decompose and report
// (fd.MineState, EncodeState bytes), rechecked rather than re-mined after
// an append. It is a cache kind, not a task: absent from Specs, so it
// can be neither submitted nor served as a job result, and its key can
// never be an artifact's.
const KindFDState = "fd-state"

// Intermediates holds what the jobs of one dataset leave behind, by kind
// and parameters. It is best-effort on both sides: Load returns ok=false
// for anything it does not hold, the runner checks what it is handed —
// built over these rows, or over a prefix of them it can resume — and
// rebuilds (and overwrites) whatever it cannot use, and no result ever
// depends on it.
type Intermediates interface {
	LoadIntermediate(kind string, p Params) ([]byte, bool)
	SaveIntermediate(kind string, p Params, data []byte)
}

// hook is what WithIntermediates hangs on the context: the store, and
// whether a runner resumed what an earlier epoch left (RunColumns reads
// it back to time the run as a delta re-mine).
type hook struct {
	Intermediates
	resumed bool
}

type intermediatesKey struct{}

// WithIntermediates returns a context under which runners ask im for what
// they can reuse before building it, and leave what they built there
// after. That is also how an append re-mines incrementally: mine-fds,
// rank-fds and decompose resume the FD state of a prefix of their rows,
// on any relation.Columns, and re-mine only what the appended rows could
// have changed. Without it every run builds what it needs; the
// result is the same either way.
func WithIntermediates(ctx context.Context, im Intermediates) context.Context {
	return context.WithValue(ctx, intermediatesKey{}, &hook{Intermediates: im})
}

func intermediatesOf(ctx context.Context) *hook {
	h, _ := ctx.Value(intermediatesKey{}).(*hook)
	return h
}
