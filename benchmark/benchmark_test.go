package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %g, want 0", got)
	}
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	// p90 of 1..100 is 90, with exactly ten samples beyond it.
	if v, ok := percentile(seq(100), 90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %g, %t; want 90, true", v, ok)
	}
	// With 99 samples only nine lie beyond p90: not reportable.
	if v, ok := percentile(seq(99), 90); v != 90 || ok {
		t.Errorf("p90 of 1..99 = %g, %t; want 90, false", v, ok)
	}
	if _, ok := percentile(seq(999), 99); ok {
		t.Error("p99 of 999 samples reported as supported")
	}
	if v, ok := percentile(seq(1000), 99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %g, %t; want 990, true", v, ok)
	}
	if got := supported(seq(50), 90); got != 0 {
		t.Errorf("unsupported percentile reads %g, want 0", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g, %g", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles of powers of two = %g, %g, %g", q1, q2, q3)
	}
}

func TestSelfTimeSubtractsOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "session", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", StartNS: 35, EndNS: 38},  // inside both
		{ID: 5, Parent: 1, Name: "d", StartNS: 90, EndNS: 120}, // runs past the parent
		{ID: 6, Parent: 2, Name: "a1", StartNS: 10, EndNS: 25},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (50 + 10), // children cover [10,60) and [90,100)
		2: 30 - 15,
		3: 30, 4: 3, 5: 30, 6: 15,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
}

func TestSummarizeCoverage(t *testing.T) {
	tr := &tracer{}
	add := func(id, parent, session int, name string, start, end int64) {
		tr.spans = append(tr.spans, span{ID: id, Parent: parent, Session: session, Name: name, StartNS: start, EndNS: end})
	}
	// One session of 100 ms: 10 ms parse, a 80 ms whole task, 10 ms glue.
	add(1, 0, 1, rootSession, 0, 100e6)
	add(2, 1, 1, "relation.parse", 0, 10e6)
	add(3, 1, 1, "task.mine_fds", 10e6, 90e6)
	// Its replay explains 70 of the task's 80 ms.
	add(4, 0, 1, rootReplay, 100e6, 180e6)
	add(5, 4, 1, rootReplay+".mine-fds", 100e6, 175e6)
	add(6, 5, 1, "fd.tane", 100e6, 165e6)
	add(7, 5, 1, "fd.mincover", 165e6, 170e6)
	// A probe is neither session nor replay time.
	add(8, 0, 1, rootProbes, 180e6, 190e6)
	add(9, 8, 1, "relation.scan", 180e6, 190e6)
	sum := summarize(tr.spans, map[string]bool{"task.mine_fds": true})
	if sum.sessionMS != 100 {
		t.Errorf("session = %g ms, want 100", sum.sessionMS)
	}
	if math.Abs(sum.coverage-0.80) > 1e-12 {
		t.Errorf("coverage = %g, want 0.80 (10 parse + 65 tane + 5 mincover over 100)", sum.coverage)
	}
	for name, want := range map[string]float64{"fd.tane": 65, "task.mine_fds": 80, "relation.scan": 10} {
		if got := sum.layerMS[name]; got != want {
			t.Errorf("%s = %g ms, want %g", name, got, want)
		}
	}
}

func TestParseProc(t *testing.T) {
	// A command name with spaces and a closing parenthesis.
	stat := "4242 (struct mined) x) S 1 4242 4242 0 -1 4194560 1200 0 3 0 157 43 0 0 20 0 9 0 123456 1000000 2500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	ticks, err := parseProcStatCPU(stat)
	if err != nil || ticks != 200 {
		t.Errorf("cpu ticks = %d, %v; want 200", ticks, err)
	}
	if _, err := parseProcStatCPU("no command field"); err == nil {
		t.Error("malformed stat accepted")
	}
	status := "Name:\tstructmined\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n"
	kb, err := parseVmHWM(status)
	if err != nil || kb != 123456 {
		t.Errorf("VmHWM = %d, %v; want 123456", kb, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM accepted")
	}
}

func TestPromDelta(t *testing.T) {
	before, err := parseProm(`# HELP structmine_tane_levels Lattice levels.
# TYPE structmine_tane_levels counter
structmine_tane_levels 10
structmine_exec_steals_total{kernel="tane"} 3
structmine_exec_steals_total{kernel="aib"} 4
structmined_http_requests_total{route="GET /v1/jobs/{id}"} 7
structmine_cluster_proxied_requests_total{peer="http://127.0.0.1:1"} 2
`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(`structmine_tane_levels 34
structmine_exec_steals_total{kernel="tane"} 13
structmine_exec_steals_total{kernel="aib"} 4
structmine_exec_steals_total{kernel="col\"scan"} 1.5e1
structmined_http_requests_total{route="GET /v1/jobs/{id}"} 107 1700000000000
structmine_cluster_proxied_requests_total{peer="http://127.0.0.1:1"} 52
`)
	if err != nil {
		t.Fatal(err)
	}
	d := promDelta{before, after}
	for _, c := range []struct {
		got, want float64
		what      string
	}{
		{d.sum("structmine_tane_levels"), 24, "plain counter"},
		{d.sum("structmine_exec_steals_total"), 25, "family summed over labels, one series new"},
		{d.sum("structmine_exec_steals_total", "kernel", "tane"), 10, "label filter"},
		{d.sum("structmined_http_requests_total", "route", "GET /v1/jobs/{id}"), 100, "braces in a label value, timestamp"},
		{d.sum("structmine_cluster_proxied_requests_total", "peer", "http://127.0.0.1:1"), 50, "url label"},
		{d.sum("absent_total"), 0, "absent family"},
	} {
		if c.got != c.want {
			t.Errorf("%s: delta = %g, want %g", c.what, c.got, c.want)
		}
	}
	if _, err := parseProm("broken{a=\"b 3\n"); err == nil {
		t.Error("unterminated label accepted")
	}
}

func TestScheduleIsDeterministic(t *testing.T) {
	a := hotSchedule(7, 20000, 4, 6)
	b := hotSchedule(7, 20000, 4, 6)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, hotSchedule(8, 20000, 4, 6)) {
		t.Fatal("different seeds, same schedule")
	}
	// A longer schedule extends a shorter one: warm-up and measured
	// phase are prefixes and suffixes of one sequence.
	if !reflect.DeepEqual(a[:500], hotSchedule(7, 500, 4, 6)) {
		t.Fatal("schedule prefix depends on the length")
	}
	var n [3]float64
	for _, op := range a {
		n[op.kind]++
		if op.dataset < 0 || op.dataset >= 4 || op.question < 0 || op.question >= 6 {
			t.Fatalf("op out of range: %+v", op)
		}
	}
	for kind, want := range []float64{hotDirectShare, hotProxiedShare, 1 - hotDirectShare - hotProxiedShare} {
		if got := n[kind] / float64(len(a)); math.Abs(got-want) > 0.01 {
			t.Errorf("kind %d: share %.3f, want %.2f", kind, got, want)
		}
	}
}

const tinyCSV = "A,B,C\n" +
	"1,x,p\n" +
	"2,y,p\n" +
	"3,x,q\n" +
	"1,x,q\n" +
	"2,y,q\n" +
	"3,x,p\n"

func TestStampedBodies(t *testing.T) {
	in, err := splitCSV([]byte(tinyCSV), 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := "A_s000,B,C\n1,x,p\n2,y,p\n3,x,q\n1,x,q\n"; string(in.base) != want {
		t.Errorf("base = %q, want %q", in.base, want)
	}
	if want := "A_s000,B,C\n2,y,q\n3,x,p\n"; string(in.app) != want {
		t.Errorf("append body = %q, want %q", in.app, want)
	}
	s7 := in.sessionCSV(7)
	if !strings.HasPrefix(string(s7), "A_s007,B,C\n") || len(s7) != len(in.base) {
		t.Errorf("session 7 body = %q", s7)
	}
	if string(in.base[:6]) != "A_s000" {
		t.Error("stamping a session changed the base body")
	}
	art := []byte(`{"lhs":["A_s007"],"label":"A_s007 -> B"}`)
	if got, want := string(in.unstamp(art, 7)), `{"lhs":["A_s000"],"label":"A_s000 -> B"}`; got != want {
		t.Errorf("unstamp = %s, want %s", got, want)
	}
	if _, err := splitCSV([]byte("\"A\",B\n1,2\n"), 1); err == nil {
		t.Error("quoted first header cell accepted")
	}
}

// envelope wraps a result the way GET /v1/jobs/{id}/result does.
func envelope(t *testing.T, result any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(map[string]any{
		"job":    map[string]any{"id": "job-000001", "dataset": "abc"},
		"result": result,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCheckerFlagsWrongArtifacts(t *testing.T) {
	w := &coldWorkload{questions: []question{{Task: "mine-fds"}, {Task: "partition", Params: params(map[string]any{"k": 2})}, {Task: "describe"}}}
	in, err := splitCSV([]byte(tinyCSV), 6)
	if err != nil {
		t.Fatal(err)
	}
	// The artifacts a correct daemon would return for session 5.
	rel, err := parseCSV(in.sessionCSV(5))
	if err != nil {
		t.Fatal(err)
	}
	good := func() []answer {
		var out []answer
		for _, q := range w.questions {
			res, err := runTask(context.Background(), rel, q)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, answer{q: q, envelope: envelope(t, res)})
		}
		return out
	}
	check := func(answers []answer) []wrongArtifact {
		t.Helper()
		failures, err := checkCold(&coldRun{w: w, in: in, sessions: []sessionResult{{index: 5, answers: answers}}})
		if err != nil {
			t.Fatal(err)
		}
		return failures
	}
	if f := check(good()); len(f) != 0 {
		t.Fatalf("correct artifacts flagged: %v", f)
	}

	mutate := func(i int, edit func(result map[string]any)) []answer {
		answers := good()
		var env map[string]any
		if err := json.Unmarshal(answers[i].envelope, &env); err != nil {
			t.Fatal(err)
		}
		edit(env["result"].(map[string]any))
		answers[i].envelope = envelope(t, env["result"])
		return answers
	}
	cases := map[string][]answer{
		"a flipped FD": mutate(0, func(r map[string]any) {
			fd := r["cover"].([]any)[0].(map[string]any)
			fd["lhs"], fd["rhs"] = fd["rhs"], fd["lhs"]
		}),
		"a dropped tuple": mutate(1, func(r map[string]any) {
			g := r["partitions"].([]any)[0].(map[string]any)
			g["tuples"] = g["tuples"].([]any)[1:]
		}),
		"a float off by 1e-6": mutate(2, func(r map[string]any) {
			r["tuple_info_bits"] = r["tuple_info_bits"].(float64) * (1 + 1e-6)
		}),
	}
	for what, answers := range cases {
		f := check(answers)
		if len(f) != 1 || f[0].session != 5 {
			t.Errorf("%s: failures = %v, want exactly one for session 5", what, f)
		}
	}
	ulp := mutate(2, func(r map[string]any) {
		r["tuple_info_bits"] = math.Nextafter(r["tuple_info_bits"].(float64), math.Inf(1))
	})
	if f := check(ulp); len(f) != 0 {
		t.Errorf("a float off by one ulp flagged: %v", f)
	}
}

func TestIndependentChecksRecount(t *testing.T) {
	rel, err := parseCSV([]byte(tinyCSV))
	if err != nil {
		t.Fatal(err)
	}
	decode := func(s string) any {
		v, err := decodeJSON([]byte(s))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	fd := func(lhs, rhs string) string {
		return fmt.Sprintf(`{"lhs":["%s"],"rhs":["%s"],"label":"%s -> %s"}`, lhs, rhs, lhs, rhs)
	}
	for _, c := range []struct {
		what   string
		q      question
		result string
		ok     bool
	}{
		{"A -> B holds", question{Task: "mine-fds"}, `{"cover":[` + fd("A", "B") + `]}`, true},
		{"B -> A does not", question{Task: "mine-fds"}, `{"cover":[` + fd("B", "A") + `]}`, false},
		// Keeping the majority A of each B group drops 2 of 6 tuples.
		{"B -> A at its g3", question{Task: "approx-fds"}, `{"eps":0.5,"fds":[{"fd":` + fd("B", "A") + `,"g3":0.3333333333333333}]}`, true},
		{"B -> A above eps", question{Task: "approx-fds"}, `{"eps":0.05,"fds":[{"fd":` + fd("B", "A") + `,"g3":0.3333333333333333}]}`, false},
		{"B -> A with a wrong g3", question{Task: "approx-fds"}, `{"eps":0.5,"fds":[{"fd":` + fd("B", "A") + `,"g3":0.25}]}`, false},
		{"a cover of every tuple", question{Task: "partition"}, `{"partitions":[{"tuples":[0,2,4]},{"tuples":[5,3,1]}]}`, true},
		{"a tuple twice", question{Task: "partition"}, `{"partitions":[{"tuples":[0,2,4]},{"tuples":[4,3,1,5]}]}`, false},
		{"a tuple missing", question{Task: "partition"}, `{"partitions":[{"tuples":[0,2,4]},{"tuples":[3,1]}]}`, false},
		{"ordered ranks", question{Task: "rank-fds"}, `{"ranked":[{"rank":0.1,"rad":0,"rtr":1},{"rank":0.1,"rad":0.5,"rtr":0.5}]}`, true},
		{"a rank out of order", question{Task: "rank-fds"}, `{"ranked":[{"rank":0.2,"rad":0,"rtr":1},{"rank":0.1,"rad":0.5,"rtr":0.5}]}`, false},
		{"a RAD above 1", question{Task: "rank-fds"}, `{"ranked":[{"rank":0.2,"rad":1.5,"rtr":1}]}`, false},
	} {
		err := checkIndependently(rel, c.q, decode(c.result))
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %t", c.what, err, c.ok)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps the contract file and the
// harness in step: same workloads, same metrics, same units.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", doc.RunSeconds, defaultSeconds)
	}
	whys := map[string]string{hotName: hotWhy}
	for _, w := range coldWorkloads {
		whys[w.name] = w.why
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why != whys[w.Name] {
			t.Errorf("workload %s: why differs from the harness's", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads = %v, the harness runs %v", names, workloadNames())
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics listed, the harness reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %+v, the harness reports %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s[%d] %s: bound %v", kind, i, g.Name, g.Bound)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
}
