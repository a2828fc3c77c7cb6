package task

import (
	"context"
	"fmt"
	"math"
	"strings"

	"structmine/internal/fd"
	"structmine/internal/measures"
	"structmine/internal/tuples"
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
// groups, and rank-fds' pipeline (rankedFDs) — the ranked minimum cover
// with RAD, RADw, RTR and g3 per dependency, the duplicate value groups
// and dendrogram of the grouping it ranks against, and the candidate
// keys read off that cover, so the job mines dependencies once.
func runReport(ctx context.Context, s *fd.Sets, p Params) (*ReportResult, error) {
	if err := step(ctx, "describe"); err != nil {
		return nil, err
	}
	c := s.Columns()
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
	// One attribute's measures are its marginal's: RAD = 1 − H(A)/log2 n
	// and RTR = 1 − |dom A|/n, the values measures.OfSets computes (0 at
	// n ≤ 1), with no partition built.
	res.TupleInfoBits, res.Attrs = desc.TupleInfoBits, desc.Attrs
	if n := desc.Tuples; n > 1 {
		logN := math.Log2(float64(n))
		for i := range res.Attrs {
			prof := &res.Attrs[i]
			prof.RAD, prof.RTR = 1-prof.EntropyBits/logN, 1-float64(prof.Distinct)/float64(n)
		}
	}

	if err := step(ctx, "tuple clustering"); err != nil {
		return nil, err
	}
	dup, err := tuples.FindDuplicatesColumns(ctx, s, fv(p.PhiT), defaultB)
	if err != nil {
		return nil, err
	}
	for _, g := range dup.Groups {
		if len(g) >= 2 {
			res.DuplicateTupleGroups = append(res.DuplicateTupleGroups, g)
		}
	}

	fr, err := rankedFDs(ctx, s, fv(p.Psi))
	if err != nil {
		return nil, err
	}
	if err := step(ctx, "candidate keys"); err != nil {
		return nil, err
	}
	names := c.AttrNames()
	keys, err := s.Keys(fr.cover)
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		res.CandidateKeys = append(res.CandidateKeys, k.Format(names))
	}
	strs, err := c.ValueStrings()
	if err != nil {
		return nil, err
	}
	for _, gi := range fr.values.DuplicateGroups() {
		if vals := fr.values.Groups[gi].Values; len(vals) >= 2 {
			res.DuplicateValueGroups = append(res.DuplicateValueGroups, valueLabels(c, names, strs, vals))
		}
	}
	for _, rf := range fr.ranked {
		ms, err := measures.OfSets(s, rf.FD.Attrs().Attrs())
		if err != nil {
			return nil, err
		}
		row := ReportRankedFD{Label: rf.FD.Format(names), Rank: rf.Rank, RAD: ms.RAD, RADw: ms.RADw, RTR: ms.RTR}
		if row.G3, err = s.G3(rf.FD); err != nil {
			return nil, err
		}
		res.RankedFDs = append(res.RankedFDs, row)
	}

	var dendrogram string
	if g := fr.grouping; len(g.AttrIdx) > 0 {
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
