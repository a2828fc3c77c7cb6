package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"structmine/internal/datagen"
	"structmine/internal/relation"
)

// datasetName is the ?name= every upload carries, so describe artifacts
// (which echo it) are equal across sessions.
const datasetName = "bench"

// coldSuffix is appended to the first header cell of every uploaded CSV,
// followed by coldDigits decimal digits of the session index. The width
// is fixed so every session uploads a CSV of the same length.
const (
	coldSuffix = "_s"
	coldDigits = 3
)

// coldWorkload is a workload whose sessions each upload a dataset the
// daemon has not seen and mine it from scratch.
type coldWorkload struct {
	name string
	why  string

	// daemonArgs are the daemon flags besides -addr (and -persist DIR,
	// which the harness adds when persist is set).
	daemonArgs []string
	persist    bool
	storage    string // the "storage" a registration must report

	attrs      []int // projection of the DBLP schema; nil = all 13 attributes
	rows       int   // rows of the base CSV
	appendRows int   // rows of the append body (0 = the workload never appends)

	questions   []question
	afterAppend []question

	// sessionsPerSecond turns the run length into a fixed session count:
	// the rate this commit sustains on the 2-core sandbox. A count, not a
	// deadline, ends the measured phase, so counters and memory repeat
	// exactly and a faster build is not handed more work.
	sessionsPerSecond float64
	warmup            int
}

func params(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

var coldWorkloads = []*coldWorkload{
	{
		name:       "fd_wide",
		why:        "wide resident relation: TANE and the g3 miner in internal/fd do about 90% of the work, limbo/ib idle",
		daemonArgs: []string{"-workers", "2", "-max-datasets", "4096"},
		storage:    "resident",
		rows:       8000,
		questions: []question{
			{Task: "describe"},
			{Task: "mine-fds"},
			{Task: "approx-fds"},
		},
		sessionsPerSecond: 1.5,
		warmup:            2,
	},
	{
		name:       "cluster_narrow",
		why:        "narrow resident relation above the double-clustering switch: limbo/ib/tuples/values/attrs do about 95% of the work, fd under 1%",
		daemonArgs: []string{"-workers", "2", "-max-datasets", "4096"},
		storage:    "resident",
		attrs:      datagen.ProjectionAttrs(),
		rows:       5200,
		questions: []question{
			{Task: "rank-fds"},
			{Task: "partition"},
			{Task: "dedup"},
		},
		sessionsPerSecond: 0.9,
		warmup:            2,
	},
	{
		name:       "paged_ingest",
		why:        "out-of-core relation with a 1% append: colstore ingest, page scans and index-built partitions under a cheap TANE; working set exceeds the primitive cache",
		daemonArgs: []string{"-resident-bytes", "1048576", "-max-datasets", "4096"},
		persist:    true,
		storage:    "paged",
		attrs:      datagen.ProjectionAttrs(),
		rows:       50000,
		appendRows: 500,
		questions: []question{
			{Task: "describe"},
			{Task: "mine-fds"},
		},
		afterAppend: []question{
			{Task: "describe"},
			{Task: "mine-fds"},
		},
		sessionsPerSecond: 4,
		warmup:            3,
	},
}

// coldInput is the generated input of one cold workload.
type coldInput struct {
	base     []byte // the base CSV as session 0 uploads it
	app      []byte // the append body as session 0 sends it (nil = none)
	digitsAt int    // offset of the session digits in both bodies
}

// newColdInput generates the workload's CSV bodies from the seed.
func newColdInput(w *coldWorkload, seed int64, rows, appendRows int) (*coldInput, error) {
	full := datagen.NewDBLP(datagen.DBLPConfig{
		Tuples: rows + appendRows, Seed: seed,
		MiscFrac: 129.0 / 50000, JournalFrac: 0.28,
	})
	if full.N() != rows+appendRows {
		return nil, fmt.Errorf("datagen produced %d rows, want %d", full.N(), rows+appendRows)
	}
	rel := full
	if w.attrs != nil {
		rel = full.Project(w.attrs)
	}
	var buf bytes.Buffer
	if err := rel.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return splitCSV(buf.Bytes(), rows)
}

// splitCSV renames the first header cell of csv for session 0 and cuts
// the body after baseRows data rows: the rest, under the same header,
// is the append body.
func splitCSV(csv []byte, baseRows int) (*coldInput, error) {
	nl := bytes.IndexByte(csv, '\n')
	comma := bytes.IndexByte(csv, ',')
	if nl < 0 || comma < 0 || comma > nl || csv[0] == '"' {
		return nil, fmt.Errorf("input CSV: cannot rename the first header cell of %q", firstLine(csv))
	}
	header := append([]byte(nil), csv[:comma]...)
	header = append(header, coldSuffix...)
	digitsAt := len(header)
	header = append(header, bytes.Repeat([]byte("0"), coldDigits)...)
	header = append(header, csv[comma:nl+1]...)

	// The generated values never contain newlines, so rows are lines.
	lines := bytes.SplitAfter(csv[nl+1:], []byte("\n"))
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	if baseRows > len(lines) {
		return nil, fmt.Errorf("input CSV has %d rows, want at least %d", len(lines), baseRows)
	}
	in := &coldInput{digitsAt: digitsAt}
	in.base = append(append([]byte(nil), header...), bytes.Join(lines[:baseRows], nil)...)
	if baseRows < len(lines) {
		in.app = append(append([]byte(nil), header...), bytes.Join(lines[baseRows:], nil)...)
	}
	return in, nil
}

// maxColdSessions is how many distinct sessions the fixed-width rename
// can address.
var maxColdSessions = int(math.Pow10(coldDigits))

// sessionDigits renders a session index at the fixed width.
func sessionDigits(index int) string { return fmt.Sprintf("%0*d", coldDigits, index) }

func (in *coldInput) stamp(body []byte, index int) []byte {
	out := append([]byte(nil), body...)
	copy(out[in.digitsAt:], sessionDigits(index))
	return out
}

// sessionCSV returns the base CSV of session index: the same rows under
// a header whose first cell carries the index, hence a new content hash
// and the same amount of work.
func (in *coldInput) sessionCSV(index int) []byte { return in.stamp(in.base, index) }

// sessionAppend returns the append body of session index.
func (in *coldInput) sessionAppend(index int) []byte { return in.stamp(in.app, index) }

// unstamp rewrites every occurrence of session index's renamed header
// cell in an artifact to session 0's, so artifacts of different
// sessions compare equal.
func (in *coldInput) unstamp(artifact []byte, index int) []byte {
	cell0 := in.base[:in.digitsAt+coldDigits] // "<Attr>_s000"
	cell := in.stamp(cell0, index)
	return bytes.ReplaceAll(artifact, cell, cell0)
}

// parse reads a session-0 body into a relation under the upload name.
func parseCSV(csv []byte) (*relation.Relation, error) {
	return relation.ReadCSVLimited(datasetName, bytes.NewReader(csv), relation.Limits{})
}
