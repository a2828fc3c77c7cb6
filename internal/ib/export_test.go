package ib

import (
	"context"
	"strings"
	"testing"

	"structmine/internal/it"
)

func TestDOTContainsStructure(t *testing.T) {
	res := AgglomerateKCtx(context.Background(), paperAttrs(), 1)
	dot := res.Dendrogram().DOT("attrs")
	for _, want := range []string{
		"digraph \"attrs\"", `label="A"`, `label="B"`, `label="C"`,
		"n3 -> n1", "n3 -> n2", // first merge combines B (1) and C (2)
		"n4 -> n0", "n4 -> n3",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestNewickWellFormed(t *testing.T) {
	res := AgglomerateKCtx(context.Background(), paperAttrs(), 1)
	nw := res.Dendrogram().Newick()
	if strings.Count(nw, ";") != 1 {
		t.Fatalf("full clustering should be one tree: %q", nw)
	}
	if strings.Count(nw, "(") != strings.Count(nw, ")") {
		t.Fatalf("unbalanced parens: %q", nw)
	}
	for _, leaf := range []string{"A", "B", "C"} {
		if !strings.Contains(nw, leaf+":") {
			t.Errorf("missing leaf %s in %q", leaf, nw)
		}
	}
	// B and C must be siblings.
	if !strings.Contains(nw, "(B:") && !strings.Contains(nw, ",B:") {
		t.Errorf("leaf B malformed in %q", nw)
	}
}

func TestNewickForest(t *testing.T) {
	// Partial clustering (k=2) renders two trees.
	res := AgglomerateKCtx(context.Background(), paperAttrs(), 2)
	nw := res.Dendrogram().Newick()
	if strings.Count(nw, ";") != 2 {
		t.Fatalf("k=2 should render a 2-tree forest: %q", nw)
	}
}

func TestNewickEscaping(t *testing.T) {
	objs := []Object{
		{Label: "has space", P: 0.5, Cond: it.Uniform([]int32{0})},
		{Label: "p(a,b)", P: 0.5, Cond: it.Uniform([]int32{1})},
	}
	nw := AgglomerateKCtx(context.Background(), objs, 1).Dendrogram().Newick()
	if !strings.Contains(nw, "'has space'") || !strings.Contains(nw, "'p(a,b)'") {
		t.Fatalf("labels not quoted: %q", nw)
	}
	if got := newickEscape(""); got != "'_'" {
		t.Fatalf("empty label escape: %q", got)
	}
	if got := newickEscape("it's"); got != "'it''s'" {
		t.Fatalf("quote escape: %q", got)
	}
}

func TestNewickBranchLengthsNonNegative(t *testing.T) {
	res := AgglomerateKCtx(context.Background(), paperAttrs(), 1)
	nw := res.Dendrogram().Newick()
	if strings.Contains(nw, ":-") {
		t.Fatalf("negative branch length in %q", nw)
	}
}
