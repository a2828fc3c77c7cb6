package relation

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// A body of one row and a megabyte of empty lines, valid or ending in a
// ragged record, costs what one row costs: rows are allocated as
// records arrive, never sized from the body's length.
func TestParseCSVBlankLinesAllocateOneRow(t *testing.T) {
	blank := bytes.Repeat([]byte{'\n'}, 1<<20)
	for _, tail := range []string{"", "1\n"} {
		body := append(append([]byte("A,B\n1,2\n"), blank...), tail...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rel, err := ParseCSV("blank", body, Limits{})
		runtime.ReadMemStats(&after)
		if tail == "" && (err != nil || rel.N() != 1 || cap(rel.rows) > 4) {
			t.Fatalf("valid body: err %v, rel %+v", err, rel)
		}
		if tail != "" && err == nil {
			t.Fatal("ragged last record accepted")
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("tail %q: parse allocated %d bytes for one row", tail, got)
		}
	}
}

func TestReadCSVRejectsDuplicateHeader(t *testing.T) {
	_, err := ReadCSV("dup", strings.NewReader("A,B,A\n1,2,3\n"))
	if err == nil {
		t.Fatal("duplicate attribute names should be rejected")
	}
	msg := err.Error()
	for _, want := range []string{"line 1", `"A"`, "columns 1 and 3"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}

func TestReadCSVLimitedMaxRows(t *testing.T) {
	csv := "A,B\n1,2\n3,4\n5,6\n"
	if _, err := ReadCSVLimited("ok", strings.NewReader(csv), Limits{MaxRows: 3}); err != nil {
		t.Fatalf("3 rows within limit 3: %v", err)
	}
	_, err := ReadCSVLimited("over", strings.NewReader(csv), Limits{MaxRows: 2})
	if err == nil {
		t.Fatal("4th line should exceed MaxRows=2")
	}
	if !strings.Contains(err.Error(), "line 4") || !strings.Contains(err.Error(), "row limit of 2") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestReadCSVLimitedMaxFields(t *testing.T) {
	csv := "A,B,C\n1,2,3\n"
	if _, err := ReadCSVLimited("ok", strings.NewReader(csv), Limits{MaxFields: 3}); err != nil {
		t.Fatalf("3 fields within limit 3: %v", err)
	}
	_, err := ReadCSVLimited("wide", strings.NewReader(csv), Limits{MaxFields: 2})
	if err == nil {
		t.Fatal("3-field header should exceed MaxFields=2")
	}
	if !strings.Contains(err.Error(), "line 1") || !strings.Contains(err.Error(), "limit is 2") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestReadCSVZeroLimitsUnbounded(t *testing.T) {
	var b strings.Builder
	b.WriteString("A,B\n")
	for i := 0; i < 500; i++ {
		b.WriteString("x,y\n")
	}
	r, err := ReadCSVLimited("big", strings.NewReader(b.String()), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != 500 {
		t.Fatalf("N = %d, want 500", r.N())
	}
}
