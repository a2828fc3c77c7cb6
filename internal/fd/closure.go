package fd

// Closure returns the attribute closure X+ under the given FDs, by the
// standard fixpoint iteration.
func Closure(x AttrSet, fds []FD) AttrSet {
	closure := x
	changed := true
	for changed {
		changed = false
		for _, f := range fds {
			if f.LHS.SubsetOf(closure) && !f.RHS.SubsetOf(closure) {
				closure = closure.Union(f.RHS)
				changed = true
			}
		}
	}
	return closure
}

// Implies reports whether the FD set logically implies f.
func Implies(fds []FD, f FD) bool {
	return f.RHS.SubsetOf(Closure(f.LHS, fds))
}

// MinCover computes a minimum cover of the FD set with Maier's
// algorithm: split right-hand sides, drop extraneous left-hand-side
// attributes, then drop redundant dependencies. The result is
// equivalent to the input (verified by property tests) and typically
// far smaller — the paper reports 106 discovered FDs collapsing to a
// 14-FD cover on the DB2 sample.
func MinCover(fds []FD) []FD {
	// 1. Canonical form: single-attribute right-hand sides.
	var g []FD
	seen := map[FD]bool{}
	for _, f := range fds {
		for _, a := range f.RHS.Attrs() {
			nf := FD{LHS: f.LHS, RHS: NewAttrSet(a)}
			if nf.RHS.SubsetOf(nf.LHS) {
				continue // trivial
			}
			if !seen[nf] {
				seen[nf] = true
				g = append(g, nf)
			}
		}
	}

	// 2. Remove extraneous LHS attributes: B ∈ X is extraneous in X→A
	// when A ∈ (X\B)+ under the full set.
	for i := range g {
		for {
			reduced := false
			for _, b := range g[i].LHS.Attrs() {
				smaller := g[i].LHS.Remove(b)
				if g[i].RHS.SubsetOf(Closure(smaller, g)) {
					g[i].LHS = smaller
					reduced = true
					break
				}
			}
			if !reduced {
				break
			}
		}
	}

	// Re-deduplicate after reduction.
	seen = map[FD]bool{}
	dedup := g[:0]
	for _, f := range g {
		if !seen[f] {
			seen[f] = true
			dedup = append(dedup, f)
		}
	}
	g = dedup

	// 3. Remove redundant FDs: f is redundant when g\{f} implies f.
	out := make([]FD, 0, len(g))
	remaining := append([]FD(nil), g...)
	for i := 0; i < len(remaining); i++ {
		f := remaining[i]
		rest := make([]FD, 0, len(remaining)-1+len(out))
		rest = append(rest, out...)
		rest = append(rest, remaining[i+1:]...)
		if !Implies(rest, f) {
			out = append(out, f)
		}
	}
	SortFDs(out)
	return out
}
