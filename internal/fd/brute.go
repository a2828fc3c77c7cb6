package fd

import (
	"context"
	"fmt"

	"structmine/internal/relation"
)

// BruteForce enumerates all minimal, non-trivial FDs by explicit
// satisfaction checks over every candidate left-hand side. Exponential in
// the arity; it exists as the correctness oracle for FDEP and TANE in
// tests and for tiny interactive inputs.
func BruteForce(r *relation.Relation) ([]FD, error) {
	m := r.M()
	if m > 20 {
		return nil, fmt.Errorf("fd: brute force limited to 20 attributes, got %d", m)
	}
	if r.N() == 0 || m == 0 {
		return nil, nil
	}
	var out []FD
	for a := 0; a < m; a++ {
		rhs := NewAttrSet(a)
		var minimal []AttrSet
		// Candidate LHSs in size order so minimality is a subset check
		// against already-accepted sets.
		bySize := make([][]AttrSet, m+1)
		universe := FullSet(m).Remove(a)
		for x := AttrSet(0); x <= FullSet(m); x++ {
			if x.SubsetOf(universe) {
				bySize[x.Count()] = append(bySize[x.Count()], x)
			}
		}
		for _, xs := range bySize {
		candidates:
			for _, x := range xs {
				for _, got := range minimal {
					if got.SubsetOf(x) {
						continue candidates
					}
				}
				if Holds(r, FD{LHS: x, RHS: rhs}) {
					minimal = append(minimal, x)
				}
			}
		}
		for _, x := range minimal {
			out = append(out, FD{LHS: x, RHS: rhs})
		}
	}
	SortFDs(out)
	return out, nil
}

// DiscoverCtx picks a miner by instance size: FDEP (the paper's choice)
// for small instances, TANE for large ones. Both return identical FD
// sets. Only the TANE branch parallelizes under the context's worker
// budget and arena pool; FDEP is serial.
func DiscoverCtx(ctx context.Context, r *relation.Relation) ([]FD, error) {
	if r.N() <= 1000 {
		return FDEP(r)
	}
	return TANECtx(ctx, r)
}
