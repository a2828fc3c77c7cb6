package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"structmine/internal/datagen"
	"structmine/internal/relation"
	"structmine/internal/task"
)

// writeFixture materializes the DB2 sample join (with a few injected
// duplicates) as a CSV for CLI testing.
func writeFixture(t *testing.T) string {
	t.Helper()
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	inj := datagen.InjectExactDuplicates(db.Joined, 2, 7)
	path := filepath.Join(t.TempDir(), "db2.csv")
	if err := inj.Dirty.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeNarrowFixture writes a 6-attribute projection of the join for the
// arity-bounded MVD miner.
func writeNarrowFixture(t *testing.T) string {
	t.Helper()
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.Joined.AttrIndices([]string{"EmpNo", "WorkDepNo", "DepName", "ProjNo", "ProjName", "Job"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db2narrow.csv")
	if err := db.Joined.Project(ix).WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllTasks(t *testing.T) {
	path := writeFixture(t)
	narrowPath := writeNarrowFixture(t)
	tasks := [][]string{
		{"describe", path},
		{"report", path},
		{"dedup", "-phit", "0.1", path},
		{"partition", "-k", "2", path},
		{"values", path},
		{"group-attrs", path},
		{"mine-fds", path},
		{"approx-fds", "-eps", "0.05", path},
		{"rank-fds", "-top", "5", path},
		{"decompose", path},
		{"mine-mvds", "-top", "3", narrowPath},
	}
	// Silence stdout during the run.
	old := os.Stdout
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devNull
	defer func() {
		os.Stdout = old
		devNull.Close()
	}()

	for _, args := range tasks {
		if err := run(args); err != nil {
			t.Errorf("task %v failed: %v", args, err)
		}
	}
}

func TestRunJoinsTask(t *testing.T) {
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	for _, pair := range []struct {
		name string
		rel  interface{ WriteCSVFile(string) error }
	}{
		{"emp.csv", db.Employee}, {"dep.csv", db.Department}, {"proj.csv", db.Project},
	} {
		p := filepath.Join(dir, pair.name)
		if err := pair.rel.WriteCSVFile(p); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	old := os.Stdout
	devNull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devNull
	err = run(append([]string{"joins", "-mincont", "0.95"}, paths...))
	errOne := run([]string{"joins", paths[0]})
	os.Stdout = old
	devNull.Close()
	if err != nil {
		t.Fatalf("joins task failed: %v", err)
	}
	if errOne == nil {
		t.Fatal("joins with one file should error")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args should error")
	}
	if err := run([]string{"describe"}); err == nil {
		t.Error("missing file should error")
	}
	if err := run([]string{"describe", "/nonexistent.csv"}); err == nil {
		t.Error("unreadable file should error")
	}
	path := writeFixture(t)
	old := os.Stdout
	devNull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devNull
	err := run([]string{"frobnicate", path})
	os.Stdout = old
	devNull.Close()
	if err == nil {
		t.Error("unknown task should error")
	}
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it wrote.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	old := os.Stdout
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = wr
	done := make(chan []byte)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(rd)
		done <- buf.Bytes()
	}()
	ferr := f()
	os.Stdout = old
	wr.Close()
	out := <-done
	rd.Close()
	if ferr != nil {
		t.Fatalf("run: %v", ferr)
	}
	return out
}

// TestRunJSONMode drives every task with -json and checks the output is
// a decodable JSON object (the structmined output contract).
func TestRunJSONMode(t *testing.T) {
	path := writeFixture(t)
	narrowPath := writeNarrowFixture(t)
	tasks := [][]string{
		{"describe", "-json", path},
		{"report", "-json", path},
		{"dedup", "-json", "-phit", "0.1", path},
		{"partition", "-json", "-k", "2", path},
		{"values", "-json", path},
		{"group-attrs", "-json", path},
		{"mine-fds", "-json", path},
		{"approx-fds", "-json", "-eps", "0.05", path},
		{"rank-fds", "-json", path},
		{"decompose", "-json", path},
		{"mine-mvds", "-json", narrowPath},
	}
	for _, args := range tasks {
		out := captureStdout(t, func() error { return run(args) })
		var decoded map[string]any
		if err := json.Unmarshal(out, &decoded); err != nil {
			t.Errorf("task %v: output is not a JSON object: %v\n%.200s", args, err, out)
			continue
		}
		if len(decoded) == 0 {
			t.Errorf("task %v: empty JSON object", args)
		}
	}
}

func TestRunJSONModeJoins(t *testing.T) {
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	for name, rel := range map[string]*relation.Relation{
		"emp.csv": db.Employee, "dep.csv": db.Department,
	} {
		p := filepath.Join(dir, name)
		if err := rel.WriteCSVFile(p); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	out := captureStdout(t, func() error {
		return run(append([]string{"joins", "-json", "-mincont", "0.95"}, paths...))
	})
	var res struct {
		Candidates []map[string]any `json:"candidates"`
	}
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("joins -json output: %v\n%.200s", err, out)
	}
	if len(res.Candidates) == 0 {
		t.Error("joins -json should find joinable pairs in the DB2 sample")
	}
}

// TestRankFDsJSONShape pins the -json output of rank-fds to the shared
// contract types.
func TestRankFDsJSONShape(t *testing.T) {
	path := writeFixture(t)
	out := captureStdout(t, func() error { return run([]string{"rank-fds", "-json", path}) })
	var res struct {
		Psi    float64 `json:"psi"`
		Ranked []struct {
			FD   struct{ Label string } `json:"fd"`
			Rank float64                `json:"rank"`
		} `json:"ranked"`
	}
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if res.Psi != 0.5 || len(res.Ranked) == 0 || res.Ranked[0].FD.Label == "" {
		t.Errorf("unexpected rank-fds shape: psi=%g ranked=%d", res.Psi, len(res.Ranked))
	}
}

// TestDocCommentListsEveryTask keeps the package doc comment in sync
// with the task table: every task in internal/task.Specs must appear in
// the comment block above `package main`, and the usage string must
// mention each one.
func TestDocCommentListsEveryTask(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(src, []byte("package main"))
	if idx < 0 {
		t.Fatal("main.go has no package clause")
	}
	doc := string(src[:idx])
	for _, name := range task.Names() {
		if !strings.Contains(doc, "\t"+name+" ") && !strings.Contains(doc, "\t"+name+"\n") {
			t.Errorf("doc comment omits task %q", name)
		}
	}
	usage := usageError().Error()
	for _, name := range task.Names() {
		if !strings.Contains(usage, name) {
			t.Errorf("usage string omits task %q", name)
		}
	}
}

// TestRunStatsFlag checks -stats: the result stays alone on stdout while
// the per-stage timing table lands on stderr, with the pipeline stages
// the runner traces — the same list in text mode as with -json, because
// both run the one task.Run call.
func TestRunStatsFlag(t *testing.T) {
	path := writeFixture(t)
	for _, args := range [][]string{
		{"rank-fds", "-json", "-stats", path},
		{"rank-fds", "-stats", path},
	} {
		oldErr := os.Stderr
		rd, wr, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stderr = wr
		done := make(chan []byte)
		go func() {
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(rd)
			done <- buf.Bytes()
		}()
		out := captureStdout(t, func() error { return run(args) })
		os.Stderr = oldErr
		wr.Close()
		stderr := string(<-done)
		rd.Close()

		if args[1] == "-json" {
			var decoded map[string]any
			if err := json.Unmarshal(out, &decoded); err != nil {
				t.Fatalf("-stats must not pollute the JSON on stdout: %v\n%.200s", err, out)
			}
		} else if strings.Contains(string(out), "stage timings:") {
			t.Errorf("%v: the timing table belongs on stderr, not stdout", args)
		}
		for _, want := range []string{
			"stage timings:", "parse", "dependency mining", "value clustering",
			"attribute grouping", "ranking", "total",
		} {
			if !strings.Contains(stderr, want) {
				t.Errorf("%v: -stats stderr is missing %q:\n%s", args, want, stderr)
			}
		}
	}
}

// writeDirtyDBLP writes a 1 500-tuple DBLP relation with 20 dirty
// tuples: its near-duplicates make the report's duplicate-tuple section
// sensitive to φT (a handful of groups at 0, hundreds at the task
// default 0.3).
func writeDirtyDBLP(t *testing.T) string {
	t.Helper()
	cfg := datagen.DefaultDBLPConfig()
	cfg.Tuples = 1500
	inj := datagen.InjectTupleErrors(datagen.NewDBLP(cfg), 20, 2, datagen.Typographic, 1)
	path := filepath.Join(t.TempDir(), "dblp.csv")
	if err := inj.Dirty.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTextRendersTaskResult pins text mode to the task result: for every
// single-file task, with no knob flag passed, the counts the text prints
// are the fields of the -json result of the same command — so the two
// modes cannot run different analyses (defaults, miner, composition).
func TestTextRendersTaskResult(t *testing.T) {
	dblp := writeDirtyDBLP(t)
	narrow := writeNarrowFixture(t) // the MVD miner is arity-bounded
	cases := []struct {
		task, path string
		text       string                // regexp capturing the counts the text prints
		fields     func(js []byte) []int // the same counts from the -json result
	}{
		{"describe", dblp, `: (\d+) tuples, (\d+) attributes, (\d+) values`, func(js []byte) []int {
			r := decode[task.DescribeResult](t, js)
			return []int{r.Tuples, r.Attributes, r.DistinctValues}
		}},
		{"report", dblp, `DUPLICATE TUPLE CANDIDATES \((\d+) groups\)\n(?s:.*)CORRELATED VALUE GROUPS \((\d+) in`, func(js []byte) []int {
			r := decode[task.ReportResult](t, js)
			return []int{len(r.DuplicateTupleGroups), len(r.DuplicateValueGroups)}
		}},
		{"dedup", dblp, `(\d+) duplicate-candidate groups`, func(js []byte) []int {
			return []int{len(decode[task.DedupResult](t, js).Groups)}
		}},
		{"partition", dblp, `k = (\d+) partitions`, func(js []byte) []int {
			return []int{decode[task.PartitionResult](t, js).K}
		}},
		{"values", dblp, `(\d+) value groups, (\d+) duplicate groups`, func(js []byte) []int {
			r := decode[task.ValuesResult](t, js)
			return []int{r.NumGroups, r.NumDuplicateGroups}
		}},
		{"group-attrs", dblp, `A\^D has (\d+) attributes over (\d+) duplicate groups`, func(js []byte) []int {
			r := decode[task.GroupAttrsResult](t, js)
			return []int{len(r.Attrs), r.NumDuplicateGroups}
		}},
		{"mine-fds", dblp, `(\d+) minimal FDs, (\d+) in minimum cover`, func(js []byte) []int {
			r := decode[task.FDsResult](t, js)
			return []int{r.NumMinimal, len(r.Cover)}
		}},
		{"mine-mvds", narrow, `(\d+) non-trivial MVDs`, func(js []byte) []int {
			return []int{len(decode[task.MVDsResult](t, js).MVDs)}
		}},
		{"approx-fds", dblp, `(\d+) minimal approximate FDs with g3 ≤ \S+ \(LHS ≤ (\d+)\)`, func(js []byte) []int {
			r := decode[task.ApproxFDsResult](t, js)
			return []int{len(r.FDs), r.MaxLHS}
		}},
		{"rank-fds", dblp, `(\d+) FDs ranked`, func(js []byte) []int {
			return []int{len(decode[task.RankFDsResult](t, js).Ranked)}
		}},
		{"decompose", dblp, `S1 .*: (\d+) rows\n\s+S2 .*: (\d+) rows`, func(js []byte) []int {
			r := decode[task.DecomposeResult](t, js)
			return []int{r.S1.Tuples, r.S2.Tuples}
		}},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.task] = true
		text := captureStdout(t, func() error { return run([]string{c.task, c.path}) })
		js := captureStdout(t, func() error { return run([]string{c.task, "-json", c.path}) })
		m := regexp.MustCompile(c.text).FindSubmatch(text)
		if m == nil {
			t.Errorf("%s: text output does not match %q:\n%.400s", c.task, c.text, text)
			continue
		}
		var got []int
		for _, g := range m[1:] {
			n, _ := strconv.Atoi(string(g))
			got = append(got, n)
		}
		if want := c.fields(js); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: text prints %v, -json holds %v", c.task, got, want)
		}
	}
	for _, s := range task.Specs {
		if !s.MultiFile && !covered[s.Name] {
			t.Errorf("task %q has no text-vs-json case", s.Name)
		}
	}
}

func decode[T any](t *testing.T, js []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(js, &v); err != nil {
		t.Fatalf("decoding -json output: %v\n%.200s", err, js)
	}
	return v
}
