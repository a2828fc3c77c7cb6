package task

import "context"

// Intermediates holds what the jobs of one dataset leave behind for the
// next ones to read instead of recomputing: one slot, the minimal FD set
// of mine-fds, rank-fds, decompose and report as fd.EncodeState JSON,
// rechecked rather than re-mined after an append. It is best-effort on
// both sides: LoadFDState returns ok=false when it holds nothing it may
// hand this job, the runner checks what it is handed — built over these
// rows, or over a prefix of them it can resume — and re-mines (and
// overwrites) whatever it cannot use, and no result ever depends on it.
type Intermediates interface {
	LoadFDState() ([]byte, bool)
	SaveFDState(data []byte)
}

type intermediatesKey struct{}

// WithIntermediates returns a context under which runners ask im for the
// FD state before mining, and leave the state they mined there after.
// That is how an append re-mines incrementally: mine-fds, rank-fds and
// decompose resume the FD state of a prefix of their rows, on any
// relation.Columns, and re-mine only what the appended rows could have
// changed. Without it every run mines from scratch; the result is the
// same either way.
func WithIntermediates(ctx context.Context, im Intermediates) context.Context {
	return context.WithValue(ctx, intermediatesKey{}, im)
}

func intermediatesOf(ctx context.Context) Intermediates {
	im, _ := ctx.Value(intermediatesKey{}).(Intermediates)
	return im
}
