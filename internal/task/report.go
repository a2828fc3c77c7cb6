package task

import (
	"context"
	"fmt"
	"strings"

	"structmine/internal/fd"
	"structmine/internal/fdrank"
	"structmine/internal/measures"
	"structmine/internal/relation"
)

// The report's text lists at most this many duplicate groups of each
// kind and ranked dependencies, then a "... N more" line.
const (
	reportMaxGroups = 8
	reportMaxFDs    = 10
)

// ReportRankedFD is one ranked dependency row of the full report.
type ReportRankedFD struct {
	Label string  `json:"label"`
	Rank  float64 `json:"rank"`
	RAD   float64 `json:"rad"`
	RADw  float64 `json:"rad_weighted"`
	RTR   float64 `json:"rtr"`
	G3    float64 `json:"g3"`
}

// ReportResult is the full analyst-facing structure report — the "data
// quality browser" usage the paper motivates — both as structured data
// and as the rendered text.
type ReportResult struct {
	Relation             string           `json:"relation"`
	Tuples               int              `json:"tuples"`
	Attributes           int              `json:"attributes"`
	DistinctValues       int              `json:"distinct_values"`
	TupleInfoBits        float64          `json:"tuple_info_bits"`
	Attrs                []AttrProfile    `json:"attrs"`
	DuplicateTupleGroups [][]int          `json:"duplicate_tuple_groups"`
	DuplicateValueGroups [][]string       `json:"duplicate_value_groups"`
	CandidateKeys        []string         `json:"candidate_keys"`
	Dendrogram           string           `json:"dendrogram,omitempty"`
	RankedFDs            []ReportRankedFD `json:"ranked_fds"`
	Text                 string           `json:"text"`
}

// runReport composes the report from the other runners' steps: the
// describe profile with RAD/RTR per attribute, dedup's duplicate tuple
// groups, the duplicate value groups and attribute grouping of
// GroupAttributes, the candidate keys, and the ranked minimum cover with
// RAD, RADw, RTR and g3 per dependency. Its grouping is single-clustered
// at every size, so above largeInstance its ranks can differ from
// rank-fds', which double-clusters there.
func runReport(ctx context.Context, c relation.Columns, p Params) (*ReportResult, error) {
	phiT, psi := fv(p.PhiT), fv(p.Psi)
	if phiT < 0 {
		phiT = 0.3
	}
	if psi < 0 {
		psi = 0.5
	}
	if err := step(ctx, "describe"); err != nil {
		return nil, err
	}
	desc, err := DescribeColumns(c)
	if err != nil {
		return nil, err
	}
	res := &ReportResult{
		Relation: desc.Relation, Tuples: desc.Tuples, Attributes: desc.Attributes,
		DistinctValues: desc.DistinctValues,
	}
	if desc.Tuples == 0 || desc.Attributes == 0 {
		res.Text = res.render("")
		return res, nil
	}
	res.TupleInfoBits = desc.TupleInfoBits
	for a, prof := range desc.Attrs {
		if prof.RAD, err = measures.RADColumns(c, []int{a}); err != nil {
			return nil, err
		}
		if prof.RTR, err = measures.RTRColumns(c, []int{a}); err != nil {
			return nil, err
		}
		res.Attrs = append(res.Attrs, prof)
	}

	if err := step(ctx, "tuple clustering"); err != nil {
		return nil, err
	}
	dup, err := duplicates(ctx, c, phiT)
	if err != nil {
		return nil, err
	}
	for _, g := range dup.Groups {
		if len(g) >= 2 {
			res.DuplicateTupleGroups = append(res.DuplicateTupleGroups, g)
		}
	}

	g, vc, err := GroupAttributes(ctx, c, phiT, fv(p.PhiV), defaultB, false)
	if err != nil {
		return nil, err
	}
	strs, err := c.ValueStrings()
	if err != nil {
		return nil, err
	}
	names := c.AttrNames()
	for _, gi := range vc.DuplicateGroups() {
		if vals := vc.Groups[gi].Values; len(vals) >= 2 {
			res.DuplicateValueGroups = append(res.DuplicateValueGroups, valueLabels(c, names, strs, vals))
		}
	}

	if err := step(ctx, "candidate keys"); err != nil {
		return nil, err
	}
	if keys, err := fd.KeysColumns(c); err == nil {
		for _, k := range keys {
			res.CandidateKeys = append(res.CandidateKeys, k.Format(names))
		}
	}
	fds, err := minedFDs(ctx, c)
	if err != nil {
		return nil, fmt.Errorf("report: mining dependencies: %w", err)
	}
	if err := step(ctx, "ranking"); err != nil {
		return nil, err
	}
	for _, rf := range fdrank.Rank(fd.MinCover(fds), g, psi) {
		ix := rf.FD.Attrs().Attrs()
		row := ReportRankedFD{Label: rf.FD.Format(names), Rank: rf.Rank}
		if row.RAD, err = measures.RADColumns(c, ix); err != nil {
			return nil, err
		}
		if row.RADw, err = measures.RADWeighted(c, ix); err != nil {
			return nil, err
		}
		if row.RTR, err = measures.RTRColumns(c, ix); err != nil {
			return nil, err
		}
		if row.G3, err = fd.G3Columns(c, rf.FD); err != nil {
			return nil, err
		}
		res.RankedFDs = append(res.RankedFDs, row)
	}

	var dendrogram string
	if len(g.AttrIdx) > 0 {
		res.Dendrogram = g.Dendrogram().ASCII(78)
		dendrogram = g.Dendrogram().ASCII(74)
	}
	res.Text = res.render(dendrogram)
	return res, nil
}

// render writes the analyst-facing text report; dendrogram is the
// attribute grouping's ASCII rendering, "" when there is none.
func (r *ReportResult) render(dendrogram string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "STRUCTURE REPORT — %s\n", r.Relation)
	fmt.Fprintf(&b, "%d tuples × %d attributes, %d distinct values, I(T;V) = %.3f bits\n\n",
		r.Tuples, r.Attributes, r.DistinctValues, r.TupleInfoBits)

	b.WriteString("ATTRIBUTE PROFILES\n")
	fmt.Fprintf(&b, "  %-20s %9s %7s %9s %7s %7s\n", "attribute", "distinct", "null%", "H (bits)", "RAD", "RTR")
	for _, a := range r.Attrs {
		fmt.Fprintf(&b, "  %-20s %9d %6.1f%% %9.3f %7.3f %7.3f\n",
			a.Name, a.Distinct, 100*a.NullFraction, a.EntropyBits, a.RAD, a.RTR)
	}

	fmt.Fprintf(&b, "\nDUPLICATE TUPLE CANDIDATES (%d groups)\n", len(r.DuplicateTupleGroups))
	for i, g := range r.DuplicateTupleGroups {
		if i >= reportMaxGroups {
			fmt.Fprintf(&b, "  ... %d more\n", len(r.DuplicateTupleGroups)-i)
			break
		}
		fmt.Fprintf(&b, "  group %d: tuples %v\n", i+1, g)
	}

	fmt.Fprintf(&b, "\nCORRELATED VALUE GROUPS (%d in C_V^D)\n", len(r.DuplicateValueGroups))
	for i, g := range r.DuplicateValueGroups {
		if i >= reportMaxGroups {
			fmt.Fprintf(&b, "  ... %d more\n", len(r.DuplicateValueGroups)-i)
			break
		}
		fmt.Fprintf(&b, "  {%s}\n", strings.Join(g, ", "))
	}

	if dendrogram != "" {
		b.WriteString("\nATTRIBUTE GROUPING (by shared duplication)\n")
		b.WriteString(dendrogram)
	}

	if len(r.CandidateKeys) > 0 {
		b.WriteString("\nCANDIDATE KEYS\n")
		for _, k := range r.CandidateKeys {
			fmt.Fprintf(&b, "  %s\n", k)
		}
	}

	if len(r.RankedFDs) > 0 {
		b.WriteString("\nRANKED DEPENDENCIES (most redundancy-removing first)\n")
		fmt.Fprintf(&b, "  %-48s %8s %7s %7s %7s\n", "dependency", "rank", "RADw", "RTR", "g3")
		for i, rf := range r.RankedFDs {
			if i >= reportMaxFDs {
				fmt.Fprintf(&b, "  ... %d more\n", len(r.RankedFDs)-i)
				break
			}
			fmt.Fprintf(&b, "  %-48s %8.4f %7.3f %7.3f %7.3f\n", rf.Label, rf.Rank, rf.RADw, rf.RTR, rf.G3)
		}
	}
	return b.String()
}
