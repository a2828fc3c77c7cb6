package fd

import (
	"context"
	"fmt"
	"sort"
)

// MVD is a multivalued dependency X →→ Y (with Z = R − X − Y implied).
// The paper's related work covers MVD discovery (Savnik & Flach 2000);
// MVDs justify the lossless binary decompositions that FDs cannot, so a
// structure miner benefits from checking them alongside FDs.
type MVD struct {
	LHS AttrSet
	RHS AttrSet
}

// Format renders "[X]->->[Y]" with attribute names.
func (v MVD) Format(names []string) string {
	return v.LHS.Format(names) + "->->" + v.RHS.Format(names)
}

// MineMVDsCtx enumerates the non-trivial multivalued dependencies X →→ Y
// holding in the instance with |X| ≤ maxLHS, keeping for each X only the
// ⊆-minimal right-hand sides (the dependency basis elements found by the
// search). Y candidates range over the non-X attributes; Y and its
// complement are reported once (the lexicographically smaller side).
//
// The search is exponential in the arity, as any MVD miner's is; the
// maxLHS bound (default 2) and the m ≤ 16 guard keep it interactive.
// FDs imply MVDs (X → Y ⟹ X →→ Y); pass skipFDImplied to suppress those.
//
// The search runs over the job's kernel, under the context's worker
// budget (used by the FD-pruning TANE pass) and cancellation, which it
// checks before every candidate's check. Every candidate is checked on s
// (Sets.MVDHolds), whose level-1 partitions the TANE pass shares.
func MineMVDsCtx(ctx context.Context, s *Sets, maxLHS int, skipFDImplied bool) ([]MVD, error) {
	c := s.Columns()
	m := c.M()
	if m > 16 {
		return nil, fmt.Errorf("fd: MVD mining limited to 16 attributes, got %d", m)
	}
	if c.N() == 0 || m < 3 {
		return nil, nil
	}
	if maxLHS <= 0 {
		maxLHS = 2
	}
	if maxLHS > m-2 {
		maxLHS = m - 2
	}
	var fds []FD
	if skipFDImplied {
		var err error
		fds, err = TANEColumnsCtx(ctx, s)
		if err != nil {
			return nil, err
		}
	}

	full := FullSet(m)
	var out []MVD
	var lhsSets []AttrSet
	for x := AttrSet(0); x <= full; x++ {
		if x.SubsetOf(full) && x.Count() <= maxLHS {
			lhsSets = append(lhsSets, x)
		}
	}
	sort.Slice(lhsSets, func(i, j int) bool {
		if c1, c2 := lhsSets[i].Count(), lhsSets[j].Count(); c1 != c2 {
			return c1 < c2
		}
		return lhsSets[i] < lhsSets[j]
	})

	for _, x := range lhsSets {
		rest := full.Minus(x)
		if rest.Count() < 2 {
			continue
		}
		var minimal []AttrSet
		// Enumerate Y ⊂ rest, non-empty, proper; canonical side only.
		restAttrs := rest.Attrs()
		limit := 1 << uint(len(restAttrs))
	candidates:
		for mask := 1; mask < limit-1; mask++ {
			var y AttrSet
			for i, a := range restAttrs {
				if mask&(1<<uint(i)) != 0 {
					y = y.Add(a)
				}
			}
			comp := rest.Minus(y)
			if comp < y {
				continue // report the smaller side once
			}
			for _, seen := range minimal {
				if seen.SubsetOf(y) {
					continue candidates // not minimal
				}
			}
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("fd: MVD mining canceled: %w", err)
			}
			v := MVD{LHS: x, RHS: y}
			if ok, err := s.MVDHolds(v); err != nil {
				return nil, err
			} else if !ok {
				continue
			}
			if skipFDImplied && (Implies(fds, FD{LHS: x, RHS: y}) || Implies(fds, FD{LHS: x, RHS: comp})) {
				continue
			}
			minimal = append(minimal, y)
			out = append(out, v)
		}
	}
	return out, nil
}
