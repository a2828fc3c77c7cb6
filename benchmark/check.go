package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"structmine/internal/relation"
	"structmine/internal/task"
)

// relTol is the relative tolerance of float comparisons: the paged and
// the resident describe differ in the last few ulps by design, and
// nothing else may differ at all.
const relTol = 1e-9

// resultMember extracts the raw "result" member of a
// GET /v1/jobs/{id}/result body. The envelope around it carries job ids
// and is never compared.
func resultMember(envelope []byte) (json.RawMessage, error) {
	var env struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(envelope, &env); err != nil {
		return nil, fmt.Errorf("result envelope: %w", err)
	}
	if len(env.Result) == 0 {
		return nil, fmt.Errorf("result envelope has no result member")
	}
	return env.Result, nil
}

// resultTail returns the envelope from its top-level "result" key to the
// end — the result member and the closing brace, byte for byte — or nil
// when there is none. The daemon indents envelopes by two spaces, so the
// key sits at the start of a line; the job object before it has no key
// of that name. serve_hot compares tails instead of decoding thousands of
// envelopes a second.
func resultTail(envelope []byte) []byte {
	i := bytes.Index(envelope, []byte("\n  \"result\": "))
	if i < 0 {
		return nil
	}
	return envelope[i:]
}

// datasetOf extracts the dataset id from a result envelope.
func datasetOf(envelope []byte) (string, error) {
	var env struct {
		Job struct {
			Dataset string `json:"dataset"`
		} `json:"job"`
	}
	if err := json.Unmarshal(envelope, &env); err != nil {
		return "", fmt.Errorf("result envelope: %w", err)
	}
	return env.Job.Dataset, nil
}

// decodeJSON decodes into generic values, keeping numbers as written.
func decodeJSON(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}

// diffJSON returns "" when got equals want as decoded JSON, numbers
// compared at relTol; otherwise the path and nature of the first
// difference.
func diffJSON(want, got any, path string) string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return fmt.Sprintf("%s: want an object, got %T", path, got)
		}
		if len(g) != len(w) {
			return fmt.Sprintf("%s: want %d members, got %d", path, len(w), len(g))
		}
		keys := make([]string, 0, len(w))
		for k := range w {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			gv, ok := g[k]
			if !ok {
				return fmt.Sprintf("%s.%s: missing", path, k)
			}
			if d := diffJSON(w[k], gv, path+"."+k); d != "" {
				return d
			}
		}
		return ""
	case []any:
		g, ok := got.([]any)
		if !ok {
			return fmt.Sprintf("%s: want an array, got %T", path, got)
		}
		if len(g) != len(w) {
			return fmt.Sprintf("%s: want %d elements, got %d", path, len(w), len(g))
		}
		for i := range w {
			if d := diffJSON(w[i], g[i], fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
		return ""
	case json.Number:
		g, ok := got.(json.Number)
		if !ok {
			return fmt.Sprintf("%s: want a number, got %T", path, got)
		}
		if w == g {
			return ""
		}
		wf, err1 := w.Float64()
		gf, err2 := g.Float64()
		if err1 != nil || err2 != nil || math.Abs(wf-gf) > relTol*math.Max(math.Abs(wf), math.Abs(gf)) {
			return fmt.Sprintf("%s: want %s, got %s", path, w, g)
		}
		return ""
	default: // string, bool, nil
		if want != got {
			return fmt.Sprintf("%s: want %v, got %v", path, want, got)
		}
		return ""
	}
}

// oracle holds, per question of a session, the expected result computed
// in-process, plus the relation the question was asked of.
type oracle struct {
	q    question
	rel  *relation.Relation
	want any // decoded JSON of the expected result member
}

// runTask computes a question's result in-process, as the oracle and the
// traced sessions need it.
func runTask(ctx context.Context, rel *relation.Relation, q question) (any, error) {
	var p task.Params
	if len(q.Params) > 0 {
		if err := json.Unmarshal(q.Params, &p); err != nil {
			return nil, fmt.Errorf("params of %s: %w", q, err)
		}
	}
	return task.Run(ctx, rel, q.Task, p)
}

func newOracle(rel *relation.Relation, q question) (oracle, error) {
	res, err := runTask(context.Background(), rel, q)
	if err != nil {
		return oracle{}, fmt.Errorf("oracle %s: %w", q, err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		return oracle{}, err
	}
	want, err := decodeJSON(data)
	if err != nil {
		return oracle{}, err
	}
	return oracle{q: q, rel: rel, want: want}, nil
}

// coldOracles computes the expected artifact of every question of a
// session, in session order, from session 0's bodies.
func coldOracles(w *coldWorkload, in *coldInput) ([]oracle, error) {
	rel, err := parseCSV(in.base)
	if err != nil {
		return nil, err
	}
	var out []oracle
	for _, q := range w.questions {
		o, err := newOracle(rel, q)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	if len(w.afterAppend) > 0 {
		ext, _, err := relation.AppendCSV(rel, in.app, relation.Limits{})
		if err != nil {
			return nil, err
		}
		for _, q := range w.afterAppend {
			o, err := newOracle(ext, q)
			if err != nil {
				return nil, err
			}
			out = append(out, o)
		}
	}
	return out, nil
}

// checkCold verifies every artifact of every completed session against
// the oracle, and the first completed session's artifacts against the
// engine-independent checks.
func checkCold(run *coldRun) ([]wrongArtifact, error) {
	oracles, err := coldOracles(run.w, run.in)
	if err != nil {
		return nil, err
	}
	var wrong []wrongArtifact
	flag := func(s sessionResult, format string, args ...any) {
		wrong = append(wrong, wrongArtifact{s.index, fmt.Sprintf(format, args...)})
	}
	independent := false
	for _, s := range run.sessions {
		if s.err != nil {
			continue
		}
		if len(s.answers) != len(oracles) {
			flag(s, "%d artifacts, want %d", len(s.answers), len(oracles))
			continue
		}
		for i, a := range s.answers {
			raw, err := resultMember(a.envelope)
			if err != nil {
				flag(s, "%s: %v", a.q, err)
				continue
			}
			got, err := decodeJSON(run.in.unstamp(raw, s.index))
			if err != nil {
				flag(s, "%s: %v", a.q, err)
				continue
			}
			if d := diffJSON(oracles[i].want, got, "result"); d != "" {
				flag(s, "%s: %s", a.q, d)
				continue
			}
			if !independent {
				if err := checkIndependently(oracles[i].rel, a.q, got); err != nil {
					flag(s, "%s: %v", a.q, err)
				}
			}
		}
		independent = true
	}
	return wrong, nil
}

// checkIndependently applies the checks that do not reuse the engines:
// they recount from the rows of the relation.
func checkIndependently(rel *relation.Relation, q question, result any) error {
	obj, ok := result.(map[string]any)
	if !ok {
		return fmt.Errorf("result is not an object")
	}
	switch q.Task {
	case "mine-fds":
		cover, _ := obj["cover"].([]any)
		for _, item := range cover {
			lhs, rhs, label, err := fdItem(rel, item)
			if err != nil {
				return err
			}
			for _, a := range rhs {
				if kept := maxKept(rel, lhs, a); kept != rel.N() {
					return fmt.Errorf("%s does not hold: %d of %d tuples violate it", label, rel.N()-kept, rel.N())
				}
			}
		}
	case "approx-fds":
		eps, err := number(obj["eps"])
		if err != nil {
			return err
		}
		fds, _ := obj["fds"].([]any)
		for _, item := range fds {
			m, _ := item.(map[string]any)
			lhs, rhs, label, err := fdItem(rel, m["fd"])
			if err != nil {
				return err
			}
			g3, err := number(m["g3"])
			if err != nil {
				return err
			}
			for _, a := range rhs {
				direct := 1 - float64(maxKept(rel, lhs, a))/float64(rel.N())
				if direct > eps+relTol {
					return fmt.Errorf("%s: g3 by direct count is %g, above eps %g", label, direct, eps)
				}
				if math.Abs(direct-g3) > relTol {
					return fmt.Errorf("%s: reported g3 %g, direct count %g", label, g3, direct)
				}
			}
		}
	case "partition":
		seen := make([]bool, rel.N())
		count := 0
		groups, _ := obj["partitions"].([]any)
		for _, g := range groups {
			m, _ := g.(map[string]any)
			tuples, _ := m["tuples"].([]any)
			for _, tv := range tuples {
				f, err := number(tv)
				t := int(f)
				if err != nil || t < 0 || t >= rel.N() || float64(t) != f {
					return fmt.Errorf("partition lists tuple %v", tv)
				}
				if seen[t] {
					return fmt.Errorf("tuple %d is in two partitions", t)
				}
				seen[t] = true
				count++
			}
		}
		if count != rel.N() {
			return fmt.Errorf("partitions cover %d of %d tuples", count, rel.N())
		}
	case "rank-fds":
		ranked, _ := obj["ranked"].([]any)
		prev := math.Inf(-1)
		for i, item := range ranked {
			m, _ := item.(map[string]any)
			rank, err := number(m["rank"])
			if err != nil {
				return err
			}
			if rank < prev {
				return fmt.Errorf("ranked[%d]: rank %g below its predecessor's %g", i, rank, prev)
			}
			prev = rank
			for _, k := range []string{"rad", "rtr"} {
				v, err := number(m[k])
				if err != nil {
					return err
				}
				if v < 0 || v > 1 {
					return fmt.Errorf("ranked[%d]: %s = %g outside [0, 1]", i, k, v)
				}
			}
		}
	}
	return nil
}

func number(v any) (float64, error) {
	n, ok := v.(json.Number)
	if !ok {
		return 0, fmt.Errorf("want a number, got %T", v)
	}
	return n.Float64()
}

// fdItem resolves the attribute names of one {"lhs","rhs","label"}
// artifact item to attribute indices.
func fdItem(rel *relation.Relation, item any) (lhs, rhs []int, label string, err error) {
	m, ok := item.(map[string]any)
	if !ok {
		return nil, nil, "", fmt.Errorf("dependency item is %T", item)
	}
	label, _ = m["label"].(string)
	resolve := func(key string) ([]int, error) {
		list, _ := m[key].([]any)
		var out []int
		for _, n := range list {
			name, _ := n.(string)
			a := rel.AttrIndex(name)
			if a < 0 {
				return nil, fmt.Errorf("%s names unknown attribute %q", label, name)
			}
			out = append(out, a)
		}
		return out, nil
	}
	if lhs, err = resolve("lhs"); err != nil {
		return nil, nil, "", err
	}
	if rhs, err = resolve("rhs"); err != nil {
		return nil, nil, "", err
	}
	if len(rhs) == 0 {
		return nil, nil, "", fmt.Errorf("%s has no right-hand side", label)
	}
	return lhs, rhs, label, nil
}

// maxKept groups the tuples by their lhs values and returns how many
// tuples remain when each group keeps only its most frequent rhs value:
// n when lhs → rhs holds exactly, n·(1 − g3) otherwise.
func maxKept(rel *relation.Relation, lhs []int, rhs int) int {
	groups := map[string]map[int32]int{}
	key := make([]byte, 0, 4*len(lhs))
	for t := 0; t < rel.N(); t++ {
		key = key[:0]
		for _, a := range lhs {
			key = binary.LittleEndian.AppendUint32(key, uint32(rel.Value(t, a)))
		}
		g := groups[string(key)]
		if g == nil {
			g = map[int32]int{}
			groups[string(key)] = g
		}
		g[rel.Value(t, rhs)]++
	}
	kept := 0
	for _, g := range groups {
		best := 0
		for _, n := range g {
			best = max(best, n)
		}
		kept += best
	}
	return kept
}
