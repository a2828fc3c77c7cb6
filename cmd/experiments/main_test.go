package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"structmine/internal/experiments"
)

func TestRunSingleExperimentText(t *testing.T) {
	var out, errw strings.Builder
	code, err := run([]string{"-scale", "quick", "-only", "table3"}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d; stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "table3") {
		t.Fatalf("missing experiment output: %s", out.String())
	}
	if !strings.Contains(errw.String(), "ran 1 experiments") {
		t.Fatalf("missing summary: %s", errw.String())
	}
}

func TestRunMarkdownMode(t *testing.T) {
	var out, errw strings.Builder
	code, err := run([]string{"-scale", "quick", "-only", "figure14", "-md"}, &out, &errw)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	for _, want := range []string{"## Figure14", "**Paper reports:**", "| shape check | status | note |"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

func TestRunBadArgs(t *testing.T) {
	var out, errw strings.Builder
	if code, _ := run([]string{"-scale", "galactic"}, &out, &errw); code != 2 {
		t.Fatalf("bad scale should exit 2, got %d", code)
	}
	if code, _ := run([]string{"-only", "table99", "-scale", "quick"}, &out, &errw); code != 2 {
		t.Fatalf("unknown experiment should exit 2, got %d", code)
	}
	if code, _ := run([]string{"-notaflag"}, &out, &errw); code != 2 {
		t.Fatalf("bad flag should exit 2, got %d", code)
	}
}

// TestDocumentCurrent is the EXPERIMENTS.md drift gate: every section
// `experiments -scale paper -md` prints must appear verbatim in the
// committed document, so a change that moves a paper table fails here
// until the document is regenerated.
func TestDocumentCurrent(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-scale experiments in -short or -race mode")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var out, errw strings.Builder
	if code, err := run([]string{"-scale", "paper", "-md"}, &out, &errw); code != 0 || err != nil {
		t.Fatalf("code=%d err=%v: %s", code, err, errw.String())
	}
	md := out.String()
	starts := regexp.MustCompile(`(?m)^## `).FindAllStringIndex(md, -1)
	if len(starts) != 10 {
		t.Fatalf("%d sections rendered, want 10", len(starts))
	}
	for i, s := range starts {
		end := len(md)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		if section := md[s[0]:end]; !strings.Contains(string(doc), section) {
			t.Errorf("EXPERIMENTS.md is stale; regenerate it with go run ./cmd/experiments -scale paper -md. Section now:\n%s", section)
		}
	}
}

// seedFloors are the shape checks that do not hold for every seed, with
// how many of seeds 1-10 they pass at quick scale (EXPERIMENTS.md,
// Known deviations). Every other check passes all ten.
var seedFloors = map[string]int{
	"table1/perfect-at-small-alterations": 8,
	"table2/exact-at-one-alteration":      3,
}

// TestShapeChecksAcrossSeeds runs every shape check at quick scale for
// seeds 1-10 and holds each check's pass count to its floor, so a later
// change can hold or raise the counts but not lower them.
func TestShapeChecksAcrossSeeds(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("ten quick-scale experiment runs in -short or -race mode")
	}
	passes := map[string]int{}
	for seed := int64(1); seed <= 10; seed++ {
		for _, rep := range experiments.All(experiments.Scale{DBLPTuples: 2000, Seed: seed}) {
			for _, c := range rep.ShapeHolds {
				key := rep.ID + "/" + c.Name
				passes[key] += 0
				if c.OK {
					passes[key]++
				}
			}
		}
	}
	for key, n := range passes {
		floor, ok := seedFloors[key]
		if !ok {
			floor = 10
		}
		if n < floor {
			t.Errorf("%s passes for %d of 10 seeds, floor %d", key, n, floor)
		}
	}
	for key := range seedFloors {
		if _, ok := passes[key]; !ok {
			t.Errorf("floor for unknown shape check %s", key)
		}
	}
}
