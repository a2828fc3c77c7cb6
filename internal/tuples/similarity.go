package tuples

import (
	"sort"

	"structmine/internal/relation"
)

// The paper's conclusions point at combining its information-theoretic
// duplicate detection with the distance-function work of the duplicate-
// elimination literature ("An interesting area for future work would be
// on how to combine these techniques"). RefineDuplicates does the
// natural composition: LIMBO proposes candidate groups cheaply from
// co-occurrence structure, then candidate pairs within each group are
// scored by the string similarity of their *differing* values, so an
// analyst reviews the most plausible matches first.

// PairScore is a scored candidate duplicate pair.
type PairScore struct {
	T1, T2 int
	// Agree is the number of attributes with identical values.
	Agree int
	// Similarity is the mean normalized Levenshtein similarity of the
	// differing attribute values (1 = identical strings, 0 = disjoint).
	// Exact duplicates score 1.
	Similarity float64
}

// RefineDuplicates is RefineDuplicatesColumns over a resident relation,
// reading its rows in place.
func RefineDuplicates(r *relation.Relation, rep *DuplicateReport, minSim float64) []PairScore {
	return refine(rep.Groups, r.Row, r.ValueString, minSim)
}

// RefineDuplicatesColumns scores every pair inside each candidate group
// of the report and returns the pairs with Similarity ≥ minSim, best
// first. The rows of every tuple in a multi-tuple group are fetched in
// one pass over the stripes that hold them (never a stripe read per
// pair), and the dictionary is decoded once.
func RefineDuplicatesColumns(c relation.Columns, rep *DuplicateReport, minSim float64) ([]PairScore, error) {
	var members []int
	for _, g := range rep.Groups {
		if len(g) >= 2 {
			members = append(members, g...)
		}
	}
	rows, err := relation.FetchRows(c, members)
	if err != nil {
		return nil, err
	}
	rowOf := make(map[int][]int32, len(members))
	for i, t := range members {
		rowOf[t] = rows[i]
	}
	strs, err := c.ValueStrings()
	if err != nil {
		return nil, err
	}
	return refine(rep.Groups, func(t int) []int32 { return rowOf[t] },
		func(v int32) string { return strs[v] }, minSim), nil
}

func refine(groups [][]int, row func(t int) []int32, str func(v int32) string, minSim float64) []PairScore {
	var out []PairScore
	for _, group := range groups {
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				ps := scorePair(row(group[i]), row(group[j]), str)
				ps.T1, ps.T2 = group[i], group[j]
				if ps.Similarity >= minSim {
					out = append(out, ps)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		if out[i].Agree != out[j].Agree {
			return out[i].Agree > out[j].Agree
		}
		if out[i].T1 != out[j].T1 {
			return out[i].T1 < out[j].T1
		}
		return out[i].T2 < out[j].T2
	})
	return out
}

func scorePair(r1, r2 []int32, str func(v int32) string) PairScore {
	var ps PairScore
	totalSim := 0.0
	differing := 0
	for a, v1 := range r1 {
		v2 := r2[a]
		if v1 == v2 {
			ps.Agree++
			continue
		}
		differing++
		totalSim += Similarity(str(v1), str(v2))
	}
	if differing == 0 {
		ps.Similarity = 1
	} else {
		ps.Similarity = totalSim / float64(differing)
	}
	return ps
}

// Similarity returns 1 − normalized Levenshtein distance between two
// strings (1 for equal, 0 for completely disjoint).
func Similarity(a, b string) float64 {
	if a == b {
		return 1
	}
	maxLen := len(a)
	if len(b) > maxLen {
		maxLen = len(b)
	}
	if maxLen == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(a, b))/float64(maxLen)
}

// Levenshtein computes the edit distance between two strings (bytes;
// the data sets here are ASCII) with the two-row dynamic program.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1 // deletion
			if ins := cur[j-1] + 1; ins < m {
				m = ins
			}
			if sub := prev[j-1] + cost; sub < m {
				m = sub
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
