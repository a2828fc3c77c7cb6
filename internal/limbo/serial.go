package limbo

import (
	"context"
	"math"

	"structmine/internal/it"
)

// closestEntrySerial is the original closest-entry search of Phase 1,
// kept verbatim as the differential-testing oracle for Tree.closest: it
// computes each δI with DeltaIDCF and folds the argmin in one pass over
// the entries, keeping the first strict minimum. The tree's search, on
// recorded probes and the tree-owned buffers, must produce bit-identical
// trees — enforced by TestPropInsertMatchesSerial, which builds whole
// trees both ways over seeded inputs and compares every leaf field for
// exact equality.
func closestEntrySerial(entries []*entry, d *DCF) (int, float64) {
	best, bestDist := -1, math.Inf(1)
	for i, e := range entries {
		if dist := DeltaIDCF(e.dcf, d); dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best, bestDist
}

// closestObjSerial is the object-descent twin of closestEntrySerial,
// ranking candidates with deltaIObjRank exactly as Tree.closestObj does.
func closestObjSerial(entries []*entry, o Obj) (int, float64) {
	best, bestDist := -1, math.Inf(1)
	for i, e := range entries {
		if dist := e.dcf.deltaIObjRank(o); dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best, bestDist
}

// assignSerial is the original Phase 3 scan — every object against
// every representative through deltaIObjRank, keeping the first strict
// minimum, and reporting the winner's DeltaIObj where nearZero — kept as the
// differential-testing oracle for the term-at-a-time scan in AssignCtx,
// which must reproduce it bit for bit (TestPropAssignMatchesSerial).
func assignSerial(reps []*DCF, objs []Obj) []Assignment {
	out := make([]Assignment, len(objs))
	for oi, o := range objs {
		best, bestDist := -1, math.Inf(1)
		for ri, r := range reps {
			if d := r.deltaIObjRank(o); d < bestDist {
				best, bestDist = ri, d
			}
		}
		if best >= 0 {
			if r := reps[best]; nearZero(bestDist, it.XLog2(o.W+r.W)-it.XLog2(o.W)-r.wlog) {
				bestDist = r.DeltaIObj(o)
			}
		}
		out[oi] = Assignment{Cluster: best, Loss: bestDist}
	}
	return out
}

// NewTreeSerial creates a DCF-tree whose closest-entry searches and
// absorptions always run through the retained serial reference. It
// exists for differential tests and benchmarks (the AIB engine's
// AgglomerateKSerial plays the same role for Phase 2); new callers
// should use NewTreeCtx.
func NewTreeSerial(cfg Config) *Tree {
	cfg.forceSerial = true
	return NewTreeCtx(context.Background(), cfg)
}
