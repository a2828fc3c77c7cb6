package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"structmine/internal/fd"
	"structmine/internal/obs"
	"structmine/internal/relation"
	"structmine/internal/task"
)

// olderBuildEntry is the envelope builds before the one-slot FD state
// kept an intermediate in: its bytes base64'd under "data".
type olderBuildEntry struct {
	Epoch int    `json:"epoch"`
	Data  []byte `json:"data"`
}

// firstJob submits a question the daemon has not answered yet, waits for
// it, and returns its artifact.
func firstJob(t *testing.T, ts *httptest.Server, ds, taskName string, p task.Params) string {
	t.Helper()
	var v JobView
	code, body := doJSON(t, "POST", ts.URL+"/v1/jobs", submitRequest{Dataset: ds, Task: taskName, Params: p}, &v)
	if code != http.StatusAccepted || v.CacheHit {
		t.Fatalf("submit %s: %d, cache_hit %t — a first question must run: %s", taskName, code, v.CacheHit, body)
	}
	if got := waitJob(t, ts, v.ID); got.State != StateDone {
		t.Fatalf("%s: job state = %s (%s)", taskName, got.State, got.Error)
	}
	return jobArtifact(t, ts, v.ID)
}

// appendDB2 appends the DB2 rows again and returns the dataset after it.
func appendDB2(t *testing.T, ts *httptest.Server, ds string) Dataset {
	t.Helper()
	var next Dataset
	if code, body := doJSON(t, "POST", ts.URL+"/v1/datasets/"+ds+"/append", db2CSV(t), &next); code != http.StatusOK {
		t.Fatalf("append: %d %s", code, body)
	}
	return next
}

// TestDedupAfterOtherJobs: Phase 1 lives inside one job, so whatever
// other jobs left in a dataset's intermediates, dedup returns the bytes
// of a daemon that never ran anything but dedup — after a
// double-clustered group-attrs, after an append, and on the disk tier
// after a restart over a -persist directory that still holds the
// tuple-summary entry an older build wrote. Two first questions count
// two artifact-cache misses and no hit, and "tuple-summary" is no task.
func TestDedupAfterOtherJobs(t *testing.T) {
	_, ref := newTestServer(t, Config{Workers: 1})
	refDS := registerDB2(t, ref).ID
	want := firstJob(t, ref, refDS, "dedup", task.Params{})
	appendDB2(t, ref, refDS)
	wantAppended := firstJob(t, ref, refDS, "dedup", task.Params{})
	wantRestarted := firstJob(t, ref, refDS, "dedup", task.Params{MinSim: task.F(0.9)})

	for _, tier := range []string{"memory", "disk"} {
		var dir string
		cfg := Config{Workers: 1}
		if tier == "disk" {
			dir = t.TempDir()
			cfg.Store = openStore(t, dir)
		}
		s := New(cfg)
		ts := httptest.NewServer(s.Handler())
		ds := registerDB2(t, ts).ID

		firstJob(t, ts, ds, "group-attrs", task.Params{Double: true})
		if got := firstJob(t, ts, ds, "dedup", task.Params{}); got != want {
			t.Fatalf("%s: dedup after group-attrs -double:\n got %s\nwant %s", tier, got, want)
		}
		if st := s.CacheStats(); st.Hits != 0 || st.Misses != 2 {
			t.Fatalf("%s: artifact cache counted %d hits, %d misses after two first questions", tier, st.Hits, st.Misses)
		}
		if code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
			submitRequest{Dataset: ds, Task: "tuple-summary"}, nil); code != http.StatusBadRequest {
			t.Fatalf("%s: submitting the old cache kind as a task: %d %s", tier, code, body)
		}
		next := appendDB2(t, ts, ds)
		if got := firstJob(t, ts, ds, "dedup", task.Params{}); got != wantAppended {
			t.Fatalf("%s: dedup after an append:\n got %s\nwant %s", tier, got, wantAppended)
		}

		if tier == "disk" {
			// An older build kept the Phase 1 tuple summary beside the FD
			// state, in an entry of the same shape.
			old, _ := json.Marshal(olderBuildEntry{Epoch: next.Epoch, Data: []byte("SMTS\x02\x00 an older build's summary")})
			key := ds + "|tuple-summary|phit=0|phiv=0|psi=0|k=0|eps=0|maxlhs=0|minsim=0|double=false|mincont=0"
			if err := cfg.Store.PutArtifact(key, old); err != nil {
				t.Fatal(err)
			}
		}
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := s.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if tier == "memory" {
			continue
		}
		if err := cfg.Store.Close(); err != nil {
			t.Fatal(err)
		}

		_, ts2 := newTestServer(t, Config{Workers: 1, Store: openStoreClosed(t, dir)})
		if got := firstJob(t, ts2, ds, "dedup", task.Params{MinSim: task.F(0.9)}); got != wantRestarted {
			t.Fatalf("dedup after a restart over an older build's tuple summary:\n got %s\nwant %s", got, wantRestarted)
		}
	}
}

// olderBuildFDState is the FD-state entry a build before the JSON state
// left in the artifact cache: under the intermediates' kind-and-params
// key, the state's "SMFD" version-2 blob (magic, uint16 version, uvarint
// N, Attrs and |FDs|, two uint64s an FD, CRC32-IEEE) in an
// olderBuildEntry.
func olderBuildFDState(t *testing.T, id string, epoch int, st *fd.MineState) (string, []byte) {
	t.Helper()
	blob := []byte("SMFD\x02\x00")
	for _, v := range []int{st.N, st.Attrs, len(st.FDs)} {
		blob = binary.AppendUvarint(blob, uint64(v))
	}
	for _, f := range st.FDs {
		blob = binary.LittleEndian.AppendUint64(blob, uint64(f.LHS))
		blob = binary.LittleEndian.AppendUint64(blob, uint64(f.RHS))
	}
	blob = binary.LittleEndian.AppendUint32(blob, crc32.ChecksumIEEE(blob))
	raw, err := json.Marshal(olderBuildEntry{Epoch: epoch, Data: blob})
	if err != nil {
		t.Fatal(err)
	}
	return id + "|" + task.Params{}.CacheKey("fd-state"), raw
}

// TestFDStateAcrossUpgradeAndCorruption: the FD state a persistent
// daemon finds on disk after a restart is resumed only when it is this
// build's and intact. Each row leaves a state for 300 rows on the disk
// tier, restarts over the directory, appends ten rows and mines; the
// mine must count one "no_state" fallback and no delta re-mine, and
// return the bytes a fresh server mines from the 310 rows.
//   - "older build's entry": the store holds only the entry a build
//     before the JSON state wrote, under its old key. It boots, and the
//     entry is never read.
//   - "flipped byte": this build's entry, with one digit of an FD
//     flipped inside the artifact file. The state stays valid JSON of a
//     state that covers the rows, so only the store's envelope CRC keeps
//     the miner from resuming it; the file is quarantined.
func TestFDStateAcrossUpgradeAndCorruption(t *testing.T) {
	rows := appendCSVRows(310, 9)
	_, fresh := newTestServer(t, Config{Workers: 1})
	var scratch Dataset
	if code, body := doJSON(t, "POST", fresh.URL+"/v1/datasets?name=up", csvOf(rows), &scratch); code != http.StatusCreated {
		t.Fatalf("fresh register: %d %s", code, body)
	}
	want := mineResult(t, fresh, scratch.ID, "mine-fds")

	for _, tc := range []struct {
		name        string
		leave       func(t *testing.T, ts *httptest.Server, cfg Config, ds string) // the state on disk
		corrupt     func(t *testing.T, dir, ds string)
		quarantined bool
	}{
		{
			name: "older build's entry",
			leave: func(t *testing.T, _ *httptest.Server, cfg Config, ds string) {
				r, err := relation.ReadCSV("up", bytes.NewReader(csvOf(rows[:300])))
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				fds, err := fd.TANEColumnsCtx(ctx, fd.NewSets(ctx, relation.AsColumns(r)))
				if err != nil {
					t.Fatal(err)
				}
				fd.SortFDs(fds)
				key, raw := olderBuildFDState(t, ds, 0, &fd.MineState{N: r.N(), Attrs: r.M(), FDs: fds})
				if err := cfg.Store.PutArtifact(key, raw); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "flipped byte",
			leave: func(t *testing.T, ts *httptest.Server, _ Config, ds string) {
				mineResult(t, ts, ds, "mine-fds")
			},
			corrupt: func(t *testing.T, dir, ds string) {
				for _, name := range dirNames(t, filepath.Join(dir, "artifacts")) {
					path := filepath.Join(dir, "artifacts", name)
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					var env struct{ Key string }
					if json.Unmarshal(data, &env) != nil || env.Key != ds+"|fd-state" {
						continue
					}
					at := bytes.Index(data, []byte(`"RHS":`))
					if at < 0 {
						t.Fatalf("no FD in the state file: %s", data)
					}
					data[at+len(`"RHS":`)] ^= 1 // a digit stays a digit
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				t.Fatal("no artifact file holds the FD state")
			},
			quarantined: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Workers: 1, Store: openStore(t, dir)}
			s1 := New(cfg)
			ts1 := httptest.NewServer(s1.Handler())
			var ds Dataset
			if code, body := doJSON(t, "POST", ts1.URL+"/v1/datasets?name=up", csvOf(rows[:300]), &ds); code != http.StatusCreated {
				t.Fatalf("register: %d %s", code, body)
			}
			tc.leave(t, ts1, cfg, ds.ID)
			ts1.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s1.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			if err := cfg.Store.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.corrupt != nil {
				tc.corrupt(t, dir, ds.ID)
			}

			_, ts2 := newTestServer(t, Config{Workers: 1, Store: openStoreClosed(t, dir)})
			if code, body := doJSON(t, "POST", ts2.URL+"/v1/datasets/"+ds.ID+"/append", csvOf(rows[300:]), nil); code != http.StatusOK {
				t.Fatalf("append after restart: %d %s", code, body)
			}
			before := scrapeMetrics(t, ts2.URL)
			got := mineResult(t, ts2, ds.ID, "mine-fds")
			after := scrapeMetrics(t, ts2.URL)
			if !bytes.Equal(got, want) {
				t.Fatalf("mine-fds after the restart:\n got %s\nwant %s", got, want)
			}
			moved := func(name string) float64 { return metricValue(t, after, name) - metricValue(t, before, name) }
			if d := moved("structmine_append_delta_remine_seconds_count"); d != 0 {
				t.Errorf("%g delta re-mines, want none", d)
			}
			for _, reason := range obs.DeltaFallbackReasons {
				wantMoved := 0.0
				if reason == obs.FallbackNoState {
					wantMoved = 1
				}
				if d := moved(`structmine_append_delta_fallback_total{reason="` + reason + `"}`); d != wantMoved {
					t.Errorf("%g %s fallbacks counted, want %g", d, reason, wantMoved)
				}
			}
			if q := dirNames(t, filepath.Join(dir, "quarantine")); (len(q) > 0) != tc.quarantined {
				t.Errorf("quarantine holds %v", q)
			}
		})
	}
}
