package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"structmine/internal/colstore"
	"structmine/internal/obs"
	"structmine/internal/relation"
	"structmine/internal/store"
	"structmine/internal/store/storetest"
)

// canonicalCSV is what WriteCSV renders for the relation parsed from the
// given CSV source — the form dataset contents are compared in.
func canonicalCSV(t *testing.T, src []byte) string {
	t.Helper()
	rel, err := relation.ReadCSV("x", bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return relationCSV(t, rel)
}

func relationCSV(t *testing.T, rel *relation.Relation) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rel.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// assertStorage checks that a dataset is what its server makes every
// dataset: paged with no parsed relation under a store, resident
// without one.
func assertStorage(t *testing.T, ds *Dataset, persist bool) {
	t.Helper()
	want := StorageResident
	if persist {
		want = StoragePaged
	}
	if ds.Storage != want || (ds.rel == nil) != persist {
		t.Fatalf("dataset %s: storage %q holding a parsed relation %v, want %q", ds.ID, ds.Storage, ds.rel != nil, want)
	}
}

// datasetCSV reads a dataset's rows back out of its durable file,
// checking on the way that the dataset is paged.
func datasetCSV(t *testing.T, ds *Dataset) string {
	t.Helper()
	assertStorage(t, ds, true)
	tbl, err := colstore.Open(ds.colPath)
	if err != nil {
		t.Fatalf("opening %s: %v", ds.colPath, err)
	}
	defer tbl.Close()
	rel, err := relation.ProjectColumns(tbl, relation.AllAttrs(tbl), tbl.Name(), nil)
	if err != nil {
		t.Fatalf("reading %s: %v", ds.colPath, err)
	}
	return relationCSV(t, rel)
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestCrashAtEveryStepOfRegisterAppend enumerates a process kill at
// every mutating filesystem call — each CreateTemp, Write, Sync, Rename
// and Remove — of register → append, and reboots over what the kill
// left behind. Whatever the crash point: the dataset is in exactly the
// pre-append or the post-append state (rows neither lost nor doubled),
// never both lineages; an acknowledged registration or append is
// durable; no intent, temp file or orphaned dataset file survives
// recovery; a second reboot changes nothing; and the lineage still
// accepts the append afterwards. Every dataset any of the four entry
// points yields — register, append, intent replay, directory sweep — is
// paged and holds no parsed relation (datasetCSV).
func TestCrashAtEveryStepOfRegisterAppend(t *testing.T) {
	t.Run("paged", func(t *testing.T) {
		base := csvOf(appendCSVRows(150, 9))
		body := csvOf([]string{"800,c2,z-c2,g1", "801,c77,z-c77,", ",c5,z-c5,g9"})
		sum := sha256.Sum256(base)
		baseHash := hex.EncodeToString(sum[:])
		preCSV := canonicalCSV(t, base)
		postCSV := canonicalCSV(t, append(append([]byte(nil), base...), body[len(appendHeader)+1:]...))

		ffs := storetest.NewFaultFS()
		boot := func(dir string) (*Server, *store.Store) {
			st, err := store.Open(dir, store.Options{FS: ffs, Fsync: true})
			if err != nil {
				t.Fatal(err)
			}
			return New(Config{Workers: 1, Store: st}), st
		}
		halt := func(s *Server, st *store.Store) {
			_ = s.Shutdown(context.Background())
			_ = st.Close()
		}
		// run drives the protocol under test; with crashAt = 0 it runs
		// clean and reports how many crash points the protocol has.
		run := func(dir string, crashAt int) (regErr, appErr error, ops int) {
			s, st := boot(dir)
			defer halt(s, st)
			ffs.CrashAt(crashAt)
			defer ffs.CrashAt(0)
			ds, _, regErr := s.reg.RegisterCSV("crash", "upload", base)
			if regErr == nil {
				assertStorage(t, ds, true)
				var next *Dataset
				if next, appErr = s.reg.AppendCSV(ds.ID, body); appErr == nil {
					assertStorage(t, next, true)
				}
			}
			return regErr, appErr, ffs.Ops()
		}
		regErr, appErr, total := run(t.TempDir(), 0)
		if regErr != nil || appErr != nil || total < 12 {
			t.Fatalf("clean run: register %v, append %v, %d mutating calls", regErr, appErr, total)
		}
		t.Logf("register → append makes %d mutating filesystem calls; crashing at each", total)

		for k := 1; k <= total; k++ {
			dir := t.TempDir()
			regErr, appErr, _ := run(dir, k)
			if k < total && regErr == nil && appErr == nil {
				// Only best-effort cleanups (old file, intent) may fail silently.
				if left := dirNames(t, filepath.Join(dir, "appends")); len(left) == 0 {
					t.Fatalf("crash %d/%d went unnoticed and left nothing to clean up", k, total)
				}
			}

			var state string
			for life := 1; life <= 2; life++ {
				s, st := boot(dir)
				list, _, _ := s.reg.Page("", 0)
				if len(list) > 1 {
					t.Fatalf("crash %d/%d, life %d: %d datasets, both sides of the append survived", k, total, life, len(list))
				}
				if regErr == nil && len(list) == 0 {
					t.Fatalf("crash %d/%d, life %d: acknowledged registration lost", k, total, life)
				}
				got := ""
				if len(list) == 1 {
					ds := list[0]
					got = datasetCSV(t, ds)
					switch {
					case got == preCSV && ds.Epoch == 0 && ds.Hash == baseHash && ds.Summary.Tuples == 150:
					case got == postCSV && ds.Epoch == 1 && ds.Hash == appendHash(baseHash, body) && ds.Summary.Tuples == 153:
					default:
						t.Fatalf("crash %d/%d, life %d: dataset is in neither the pre- nor the post-append state (epoch %d, %d tuples):\n%s",
							k, total, life, ds.Epoch, ds.Summary.Tuples, got)
					}
					if appErr == nil && regErr == nil && got != postCSV {
						t.Fatalf("crash %d/%d, life %d: acknowledged append lost", k, total, life)
					}
					if ds.Name != "crash" || ds.Source != "upload" {
						t.Fatalf("crash %d/%d, life %d: recovered as %+v", k, total, life, ds)
					}
					if files := dirNames(t, filepath.Join(dir, "colstore")); len(files) != 1 || files[0] != ds.Hash+colstore.Ext {
						t.Fatalf("crash %d/%d, life %d: colstore holds %v, want only the dataset's file", k, total, life, files)
					}
				} else if files := dirNames(t, filepath.Join(dir, "colstore")); len(files) != 0 {
					t.Fatalf("crash %d/%d, life %d: no dataset but colstore holds %v", k, total, life, files)
				}
				if left := dirNames(t, filepath.Join(dir, "appends")); len(left) != 0 {
					t.Fatalf("crash %d/%d, life %d: intents survived recovery: %v", k, total, life, left)
				}
				if _, replays := s.reg.Recovered(); life == 2 && replays != 0 {
					t.Fatalf("crash %d/%d: second boot replayed %d intents", k, total, replays)
				}
				if life == 1 {
					state = got
				} else if got != state {
					t.Fatalf("crash %d/%d: second boot changed the dataset", k, total)
				}
				if life == 2 && got == preCSV {
					// The surviving lineage is whole: the append still applies.
					next, err := s.reg.AppendCSV(list[0].ID, body)
					if err != nil {
						t.Fatalf("crash %d/%d: append after recovery: %v", k, total, err)
					}
					if after := datasetCSV(t, next); after != postCSV {
						t.Fatalf("crash %d/%d: append after recovery produced\n%s", k, total, after)
					}
				}
				halt(s, st)
			}
		}
	})
}

// TestRecoverAppendKeepsStateWhenBodyCannotApply: an intent whose body
// no longer applies to its lineage (schema drift, a corrupt record) is
// retired without touching the pre-append state.
func TestRecoverAppendKeepsStateWhenBodyCannotApply(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := New(Config{Workers: 1, Store: st})
	ds, _, err := s.reg.RegisterCSV("ds", "upload", csvOf(appendCSVRows(20, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutAppendRecord(store.AppendRecord{
		ID: ds.ID, OldHash: ds.Hash, NewHash: strings.Repeat("c", 64), Epoch: 1,
		Bytes: ds.Bytes + 12, Rows: []byte("X,Y,Z\n1,2,3\n"),
	}); err != nil {
		t.Fatal(err)
	}
	_ = s.Shutdown(context.Background())
	st.Close()

	st2 := openStore(t, dir)
	s2 := New(Config{Workers: 1, Store: st2})
	got, ok := s2.reg.Get(ds.ID)
	if !ok || got.Hash != ds.Hash || got.Epoch != 0 || got.Summary.Tuples != 20 {
		t.Fatalf("pre-append state not preserved: %+v", got)
	}
	if left := dirNames(t, filepath.Join(dir, "appends")); len(left) != 0 {
		t.Fatalf("inapplicable intent not retired: %v", left)
	}
	if _, replays := s2.reg.Recovered(); replays != 0 {
		t.Fatal("an intent that did not apply counted as a replay")
	}
	_ = s2.Shutdown(context.Background())
	st2.Close()
}

// TestPagedRestart is the restart contract of the one format: a
// persistent server registers a dataset, appends to it and mines it.
// After a restart the dataset returns from its file with the same id,
// hash, epoch and summary and "storage":"paged"; the resubmission is a
// byte-identical cache hit; a fresh mine over the file equals a resident
// server's; no dataset was written outside colstore/, and no minestate/
// directory exists; and a further append still re-mines by delta from
// the FD state the previous life left in the artifact cache's disk tier.
func TestPagedRestart(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st1})
	ts1 := httptest.NewServer(s1.Handler())

	rows := appendCSVRows(400, 5)
	var ds, appended Dataset
	if code, body := doJSON(t, "POST", ts1.URL+"/v1/datasets?name=life", csvOf(rows[:300]), &ds); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	if code, body := doJSON(t, "POST", ts1.URL+"/v1/datasets/"+ds.ID+"/append", csvOf(rows[300:350]), &appended); code != http.StatusOK {
		t.Fatalf("append: %d %s", code, body)
	}
	if appended.Storage != StoragePaged || appended.Epoch != 1 || appended.ID != ds.ID {
		t.Fatalf("appended dataset: %+v", appended)
	}
	// A second dataset that is only registered: its listing — summary
	// floats included — must also survive the restart to the byte.
	var plain Dataset
	if code, body := doJSON(t, "POST", ts1.URL+"/v1/datasets?name=plain", csvOf(rows[:120]), &plain); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	_, _, plainListed1 := doReq(t, "GET", ts1.URL+"/v1/datasets/"+plain.ID, nil, nil)
	dedup1 := mineResult(t, ts1, ds.ID, "dedup")
	fds1 := mineResult(t, ts1, ds.ID, "mine-fds") // leaves FD mine-state behind
	_, _, listed1 := doReq(t, "GET", ts1.URL+"/v1/datasets/"+ds.ID, nil, nil)

	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st1.Close()

	if files := dirNames(t, filepath.Join(dir, "datasets")); len(files) != 0 {
		t.Fatalf("state/datasets holds %v; datasets belong under colstore/ only", files)
	}
	if _, err := os.Stat(filepath.Join(dir, "minestate")); !os.IsNotExist(err) {
		t.Fatalf("state/minestate exists (%v); mine-state belongs in the artifact cache", err)
	}
	if files := dirNames(t, filepath.Join(dir, "colstore")); len(files) != 2 {
		t.Fatalf("colstore holds %v, want exactly the two datasets' files", files)
	}

	st2 := openStoreClosed(t, dir)
	_, ts2 := newTestServer(t, Config{Workers: 1, Store: st2})
	code, _, listed2 := doReq(t, "GET", ts2.URL+"/v1/datasets/"+ds.ID, nil, nil)
	if code != http.StatusOK || listed2 != listed1 {
		t.Fatalf("dataset after restart (%d):\n%s\n--- before\n%s", code, listed2, listed1)
	}
	if !strings.Contains(listed2, `"storage": "paged"`) {
		t.Fatalf("dataset did not come back paged: %s", listed2)
	}
	if _, _, plainListed2 := doReq(t, "GET", ts2.URL+"/v1/datasets/"+plain.ID, nil, nil); plainListed2 != plainListed1 {
		t.Fatalf("never-appended dataset after restart:\n%s\n--- before\n%s", plainListed2, plainListed1)
	}

	// Same artifacts, served from the durable cache without re-mining.
	for taskName, want := range map[string]string{"dedup": string(dedup1), "mine-fds": string(fds1)} {
		var hit JobView
		if code, body := doJSON(t, "POST", ts2.URL+"/v1/jobs",
			submitRequest{Dataset: ds.ID, Task: taskName}, &hit); code != http.StatusOK || !hit.CacheHit {
			t.Fatalf("%s resubmission after restart: %d %s", taskName, code, body)
		}
		if got := mineResult(t, ts2, ds.ID, taskName); string(got) != want {
			t.Fatalf("%s artifact changed across the restart", taskName)
		}
	}
	// A cache hit proves nothing about the recovered file itself: mine it
	// afresh (another task, so a miss) and compare with a relation parsed
	// from the same CSV on a server with no history and no store.
	_, fresh := newTestServer(t, Config{Workers: 1})
	var again Dataset
	if code, body := doJSON(t, "POST", fresh.URL+"/v1/datasets?name=life", csvOf(rows[:350]), &again); code != http.StatusCreated {
		t.Fatalf("fresh register: %d %s", code, body)
	}
	if got, want := mineResult(t, ts2, ds.ID, "values"), mineResult(t, fresh, again.ID, "values"); !bytes.Equal(got, want) {
		t.Fatal("values artifact over the recovered file differs from a fresh parse")
	}

	// Delta re-mining still engages: the FD state of the previous life is
	// picked up by the first re-mine after the next append.
	scrape := scrapeMetrics(t, ts2.URL)
	before := metricValue(t, scrape, "structmine_append_delta_remine_seconds_count")
	if code, body := doJSON(t, "POST", ts2.URL+"/v1/datasets/"+ds.ID+"/append", csvOf(rows[350:]), &appended); code != http.StatusOK {
		t.Fatalf("append after restart: %d %s", code, body)
	}
	if appended.Epoch != 2 || appended.Storage != StoragePaged || appended.Summary.Tuples != 400 {
		t.Fatalf("second append: %+v", appended)
	}
	delta := mineResult(t, ts2, ds.ID, "mine-fds")
	rescrape := scrapeMetrics(t, ts2.URL)
	if after := metricValue(t, rescrape, "structmine_append_delta_remine_seconds_count"); after != before+1 {
		t.Fatalf("delta re-mines %g -> %g, want one more", before, after)
	}
	for _, reason := range obs.DeltaFallbackReasons {
		name := `structmine_append_delta_fallback_total{reason="` + reason + `"}`
		if was, now := metricValue(t, scrape, name), metricValue(t, rescrape, name); now != was {
			t.Fatalf("%s fallbacks %g -> %g across a re-mine that resumed the previous life's state", reason, was, now)
		}
	}
	if code, body := doJSON(t, "POST", fresh.URL+"/v1/datasets?name=life", csvOf(rows), &again); code != http.StatusCreated {
		t.Fatalf("fresh register: %d %s", code, body)
	}
	if want := mineResult(t, fresh, again.ID, "mine-fds"); !bytes.Equal(delta, want) {
		t.Fatal("delta re-mine after a restart differs from a from-scratch mine")
	}
}

// TestRefusedRegistrationLeavesNoFile: a registration refused at
// -max-datasets is refused on either tier, and with a store writes no
// dataset file — whether it is refused before its parse (the registry
// was already full) or after it (it lost the last slot to a concurrent
// registration). A leftover file is not litter: the next boot's
// directory sweep could adopt it instead of the dataset the client was
// told about.
func TestRefusedRegistrationLeavesNoFile(t *testing.T) {
	for _, tier := range []struct {
		name    string
		persist bool
	}{{"resident", false}, {"paged", true}} {
		t.Run(tier.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Workers: 1, MaxDatasets: 1}
			if tier.persist {
				cfg.Store = openStore(t, dir)
			}
			s := New(cfg)

			// Four registrations race for the one slot.
			type outcome struct {
				ds  *Dataset
				err error
			}
			results := make(chan outcome, 4)
			for i := 0; i < cap(results); i++ {
				data := csvOf(appendCSVRows(60+i, int64(i)))
				go func() {
					ds, _, err := s.reg.RegisterCSV("", "upload", data)
					results <- outcome{ds, err}
				}()
			}
			var kept *Dataset
			for i := 0; i < cap(results); i++ {
				switch r := <-results; {
				case r.err == nil && kept == nil:
					kept = r.ds
				case r.err == nil:
					t.Fatalf("two registrations admitted at -max-datasets 1: %s and %s", kept.ID, r.ds.ID)
				case !errors.Is(r.err, ErrDatasetLimit):
					t.Fatalf("refusal: %v, want ErrDatasetLimit", r.err)
				}
			}
			if kept == nil {
				t.Fatal("no registration admitted")
			}
			assertStorage(t, kept, tier.persist)
			// And one arrives at a registry that is already full.
			if _, _, err := s.reg.RegisterCSV("late", "upload", csvOf(appendCSVRows(30, 9))); !errors.Is(err, ErrDatasetLimit) {
				t.Fatalf("registration at the cap: %v, want ErrDatasetLimit", err)
			}
			_ = s.Shutdown(context.Background())
			if !tier.persist {
				return
			}
			want := []string{kept.Hash + colstore.Ext}
			if files := dirNames(t, filepath.Join(dir, "colstore")); !reflect.DeepEqual(files, want) {
				t.Fatalf("colstore holds %v after the refusals, want only %v", files, want)
			}
			cfg.Store.Close()

			cfg.Store = openStoreClosed(t, dir)
			s2 := New(cfg)
			defer s2.Shutdown(context.Background())
			if got, ok := s2.reg.Get(kept.ID); !ok || got.Hash != kept.Hash || s2.reg.Len() != 1 {
				t.Fatalf("reboot recovered %d datasets (%+v), want exactly %s", s2.reg.Len(), got, kept.ID)
			}
		})
	}
}

// renameGateFS parks the rename that publishes a dataset file, once
// armed, until released — a slow disk under a registration.
type renameGateFS struct {
	store.FS
	armed   atomic.Bool
	renames atomic.Int32
	entered chan struct{} // buffered: signals the first parked rename
	release chan struct{} // closed to let renames through
}

func (f *renameGateFS) Rename(oldPath, newPath string) error {
	if f.armed.Load() && strings.HasSuffix(newPath, colstore.Ext) {
		f.renames.Add(1)
		select {
		case f.entered <- struct{}{}:
		default:
		}
		<-f.release
	}
	return f.FS.Rename(oldPath, newPath)
}

// TestRegisterDoesNotHoldRegistryLockAcrossWrite: a registration writes,
// syncs and renames its dataset file outside the registry lock — while
// it is stuck in the rename, lookups, listings and pins of other
// datasets keep being answered. A second registration of the same bytes
// under another name meanwhile neither writes the file again nor
// renames the dataset: one entry, carrying the name its file carries.
func TestRegisterDoesNotHoldRegistryLockAcrossWrite(t *testing.T) {
	t.Run("paged", func(t *testing.T) {
		dir := t.TempDir()
		gate := &renameGateFS{FS: store.OS(), entered: make(chan struct{}, 1), release: make(chan struct{})}
		st, err := store.Open(dir, store.Options{FS: gate})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Workers: 1, Store: st}
		s := New(cfg)
		other, _, err := s.reg.RegisterCSV("other", "upload", csvOf(appendCSVRows(40, 1)))
		if err != nil {
			t.Fatal(err)
		}
		gate.armed.Store(true)

		data := csvOf(appendCSVRows(80, 2))
		type outcome struct {
			ds      *Dataset
			created bool
		}
		register := func(name string, out chan<- outcome) {
			ds, created, err := s.reg.RegisterCSV(name, "upload", data)
			if err != nil {
				t.Errorf("register %q: %v", name, err)
			}
			out <- outcome{ds, created}
		}
		first, second := make(chan outcome, 1), make(chan outcome, 1)
		go register("first", first)
		select {
		case <-gate.entered: // "first" is now inside the rename of its file
		case <-time.After(10 * time.Second):
			t.Fatal("registration never reached the rename of its dataset file")
		}
		go register("second", second)

		answered := make(chan struct{})
		go func() {
			defer close(answered)
			if _, ok := s.reg.Get(other.ID); !ok {
				t.Error("Get lost the other dataset")
			}
			s.reg.Len()
			s.reg.Page("", 0)
			_, _, release, err := s.reg.Pin(other.ID)
			if err != nil {
				t.Errorf("Pin: %v", err)
				return
			}
			release()
		}()
		select {
		case <-answered:
		case <-time.After(10 * time.Second):
			t.Error("Get, Len, Page and Pin of another dataset are stuck behind a registration's file write")
		}
		close(gate.release)
		a, b := <-first, <-second
		if t.Failed() {
			t.FailNow()
		}
		if !a.created || b.created || b.ds != a.ds || a.ds.Name != "first" || s.reg.Len() != 2 {
			t.Fatalf("first: %+v (created %v), second: %+v (created %v), %d datasets; want one entry named by the registration that wrote the file",
				a.ds, a.created, b.ds, b.created, s.reg.Len())
		}
		if n := gate.renames.Load(); n != 1 {
			t.Fatalf("the dataset file was published %d times, want once", n)
		}
		_ = s.Shutdown(context.Background())
		st.Close()

		cfg.Store = openStoreClosed(t, dir)
		s2 := New(cfg)
		defer s2.Shutdown(context.Background())
		if got, ok := s2.reg.Get(a.ds.Hash); !ok || got.Name != "first" || s2.reg.Len() != 2 {
			t.Fatalf("after a reboot: %+v of %d datasets, want the name the registry answered with", got, s2.reg.Len())
		}
	})
}
