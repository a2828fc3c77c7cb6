// Package report assembles the paper's structure-discovery tools into a
// single analyst-facing summary — the "data quality browser" usage the
// paper motivates (cf. Potter's Wheel and Bellman in its related work):
// instance statistics, per-attribute profiles, duplicate tuples,
// correlated value groups, the attribute dendrogram, and ranked
// functional dependencies with their duplication measures.
package report

import (
	"context"
	"fmt"
	"math"
	"strings"

	"structmine/internal/attrs"
	"structmine/internal/fd"
	"structmine/internal/fdrank"
	"structmine/internal/limbo"
	"structmine/internal/measures"
	"structmine/internal/relation"
	"structmine/internal/tuples"
	"structmine/internal/values"
)

// Options tunes report generation. Explicit zeros for the φ knobs and
// ψ are honored (they are meaningful settings: perfect co-occurrence
// only, threshold disabled); callers that want the paper's defaults
// (φT 0.3, ψ 0.5) must say so — the task layer's Normalize does exactly
// that for unset JSON/CLI knobs. Only negative thresholds and
// non-positive bounds are replaced.
type Options struct {
	// PhiT / PhiV are the clustering accuracy knobs.
	PhiT, PhiV float64
	// Psi is the FD-RANK threshold; negative selects 0.5.
	Psi float64
	// MaxGroups bounds how many duplicate groups to include (default 8).
	MaxGroups int
	// MaxFDs bounds how many ranked dependencies to include (default 10).
	MaxFDs int
	// SkipFDs disables dependency mining (for very wide or large
	// instances where lattice search is not wanted).
	SkipFDs bool
}

func (o Options) normalized() Options {
	if o.PhiT < 0 {
		o.PhiT = 0.3
	}
	if o.Psi < 0 {
		o.Psi = 0.5
	}
	if o.MaxGroups <= 0 {
		o.MaxGroups = 8
	}
	if o.MaxFDs <= 0 {
		o.MaxFDs = 10
	}
	return o
}

// AttrProfile is one attribute's row in the profile section.
type AttrProfile struct {
	Name         string
	Distinct     int
	NullFraction float64
	Entropy      float64 // H of the attribute's value distribution, bits
	MaxEntropy   float64 // log2(distinct)
	RAD          float64
	RTR          float64
}

// Report is the structured result; Render produces the text form.
type Report struct {
	Relation  string
	N, M, D   int
	TupleInfo float64 // I(T;V), bits

	Attrs []AttrProfile

	DuplicateTupleGroups [][]int
	DuplicateValueGroups [][]string

	// CandidateKeys lists the minimal keys of the instance (empty when
	// exact duplicate tuples exist).
	CandidateKeys []string

	Grouping *attrs.Grouping

	RankedFDs []RankedFD
}

// RankedFD is a ranked dependency with its duplication measures.
type RankedFD struct {
	Label    string
	Rank     float64
	RAD      float64
	RADw     float64
	RTR      float64
	ApproxG3 float64
}

// Generate runs the pipeline over the relation.
func Generate(c relation.Columns, opts Options) (*Report, error) {
	return GenerateCtx(context.Background(), c, opts)
}

// GenerateCtx is Generate under the context's worker budget and arena
// pool.
func GenerateCtx(ctx context.Context, c relation.Columns, opts Options) (*Report, error) {
	opts = opts.normalized()
	n, m := c.N(), c.M()
	names := c.AttrNames()
	rep := &Report{
		Relation: c.Name(),
		N:        n, M: m, D: c.D(),
	}
	if n == 0 || m == 0 {
		return rep, nil
	}
	objs, err := tuples.ObjectsColumnsCtx(ctx, c)
	if err != nil {
		return nil, err
	}
	rep.TupleInfo = limbo.MutualInfo(objs)

	// Per-attribute profiles.
	for a := 0; a < m; a++ {
		mg, err := relation.ComputeAttrMarginal(c, a)
		if err != nil {
			return nil, err
		}
		rad, err := measures.RADColumns(c, []int{a})
		if err != nil {
			return nil, err
		}
		rtr, err := measures.RTRColumns(c, []int{a})
		if err != nil {
			return nil, err
		}
		rep.Attrs = append(rep.Attrs, AttrProfile{
			Name:         names[a],
			Distinct:     mg.Distinct,
			NullFraction: float64(c.NullCount(a)) / float64(n),
			Entropy:      mg.EntropyBits,
			MaxEntropy:   log2i(mg.Distinct),
			RAD:          rad,
			RTR:          rtr,
		})
	}

	// Duplicate tuples.
	dup, err := tuples.FindDuplicatesColumns(ctx, c, opts.PhiT, 4)
	if err != nil {
		return nil, err
	}
	for _, g := range dup.Groups {
		if len(g) >= 2 {
			rep.DuplicateTupleGroups = append(rep.DuplicateTupleGroups, g)
		}
	}

	// Duplicate value groups + attribute grouping.
	vobjs, err := values.ObjectsColumnsCtx(ctx, c)
	if err != nil {
		return nil, err
	}
	strs, err := c.ValueStrings()
	if err != nil {
		return nil, err
	}
	vc := values.ClusterCtx(ctx, vobjs, opts.PhiV, 4, m)
	for _, gi := range vc.DuplicateGroups() {
		g := vc.Groups[gi]
		if len(g.Values) < 2 {
			continue
		}
		labels := make([]string, 0, len(g.Values))
		for _, v := range g.Values {
			labels = append(labels, names[c.ValueAttr(v)]+"="+strs[v])
		}
		rep.DuplicateValueGroups = append(rep.DuplicateValueGroups, labels)
	}
	rep.Grouping = attrs.GroupNamesCtx(ctx, names, vc)

	// Candidate keys and ranked dependencies.
	if !opts.SkipFDs {
		if keys, err := fd.KeysColumns(c); err == nil {
			for _, k := range keys {
				rep.CandidateKeys = append(rep.CandidateKeys, k.Format(names))
			}
		}
		fds, err := fd.DiscoverColumns(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("report: mining dependencies: %w", err)
		}
		cover := fd.MinCover(fds)
		for _, rf := range fdrank.Rank(cover, rep.Grouping, opts.Psi) {
			ix := rf.FD.Attrs().Attrs()
			rfd := RankedFD{Label: rf.FD.Format(names), Rank: rf.Rank}
			if rfd.RAD, err = measures.RADColumns(c, ix); err != nil {
				return nil, err
			}
			if rfd.RADw, err = measures.RADWeighted(c, ix); err != nil {
				return nil, err
			}
			if rfd.RTR, err = measures.RTRColumns(c, ix); err != nil {
				return nil, err
			}
			if rfd.ApproxG3, err = fd.G3Columns(c, rf.FD); err != nil {
				return nil, err
			}
			rep.RankedFDs = append(rep.RankedFDs, rfd)
		}
	}
	return rep, nil
}

// Render writes the analyst-facing text report.
func (rep *Report) Render(opts Options) string {
	opts = opts.normalized()
	var b strings.Builder
	fmt.Fprintf(&b, "STRUCTURE REPORT — %s\n", rep.Relation)
	fmt.Fprintf(&b, "%d tuples × %d attributes, %d distinct values, I(T;V) = %.3f bits\n\n",
		rep.N, rep.M, rep.D, rep.TupleInfo)

	b.WriteString("ATTRIBUTE PROFILES\n")
	fmt.Fprintf(&b, "  %-20s %9s %7s %9s %7s %7s\n", "attribute", "distinct", "null%", "H (bits)", "RAD", "RTR")
	for _, a := range rep.Attrs {
		fmt.Fprintf(&b, "  %-20s %9d %6.1f%% %9.3f %7.3f %7.3f\n",
			a.Name, a.Distinct, 100*a.NullFraction, a.Entropy, a.RAD, a.RTR)
	}

	fmt.Fprintf(&b, "\nDUPLICATE TUPLE CANDIDATES (%d groups)\n", len(rep.DuplicateTupleGroups))
	for i, g := range rep.DuplicateTupleGroups {
		if i >= opts.MaxGroups {
			fmt.Fprintf(&b, "  ... %d more\n", len(rep.DuplicateTupleGroups)-i)
			break
		}
		fmt.Fprintf(&b, "  group %d: tuples %v\n", i+1, g)
	}

	fmt.Fprintf(&b, "\nCORRELATED VALUE GROUPS (%d in C_V^D)\n", len(rep.DuplicateValueGroups))
	for i, g := range rep.DuplicateValueGroups {
		if i >= opts.MaxGroups {
			fmt.Fprintf(&b, "  ... %d more\n", len(rep.DuplicateValueGroups)-i)
			break
		}
		fmt.Fprintf(&b, "  {%s}\n", strings.Join(g, ", "))
	}

	if rep.Grouping != nil && len(rep.Grouping.AttrIdx) > 0 {
		b.WriteString("\nATTRIBUTE GROUPING (by shared duplication)\n")
		b.WriteString(rep.Grouping.Dendrogram().ASCII(74))
	}

	if len(rep.CandidateKeys) > 0 {
		b.WriteString("\nCANDIDATE KEYS\n")
		for _, k := range rep.CandidateKeys {
			fmt.Fprintf(&b, "  %s\n", k)
		}
	}

	if len(rep.RankedFDs) > 0 {
		b.WriteString("\nRANKED DEPENDENCIES (most redundancy-removing first)\n")
		fmt.Fprintf(&b, "  %-48s %8s %7s %7s %7s\n", "dependency", "rank", "RADw", "RTR", "g3")
		for i, rf := range rep.RankedFDs {
			if i >= opts.MaxFDs {
				fmt.Fprintf(&b, "  ... %d more\n", len(rep.RankedFDs)-i)
				break
			}
			fmt.Fprintf(&b, "  %-48s %8.4f %7.3f %7.3f %7.3f\n", rf.Label, rf.Rank, rf.RADw, rf.RTR, rf.ApproxG3)
		}
	}
	return b.String()
}

func log2i(n int) float64 {
	if n <= 1 {
		return 0
	}
	return math.Log2(float64(n))
}
