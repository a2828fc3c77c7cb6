package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func testIntent(i int) AppendRecord {
	return AppendRecord{
		ID: "ds", OldHash: fmt.Sprintf("%064x", i), NewHash: fmt.Sprintf("%064x", i+1000),
		Epoch: 1, Bytes: 100, Rows: []byte("A,B\n1,x\n"),
	}
}

func assertNoTemps(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), TempPrefix) {
			t.Fatalf("temp file %s survived recovery", e.Name())
		}
	}
}

// TestCrashMidAtomicWrite simulates kill -9 during a writeAtomic (the
// discipline behind intents and artifacts): the bytes land
// short in a temp file, the rename never happens, and a restart must
// still see the previous durable state with no ghosts.
func TestCrashMidAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := newFaultFS()
	s := mustOpen(t, dir, Options{FS: ffs})
	first := testIntent(1)
	if err := s.PutAppendRecord(first); err != nil {
		t.Fatalf("PutAppendRecord: %v", err)
	}

	ffs.setWriteBudget(10) // the next write tears after 10 bytes
	if err := s.PutAppendRecord(testIntent(2)); err == nil {
		t.Fatalf("short write reported success")
	}
	s.Close()

	// Recovery: only the first record exists; no temp files remain.
	ffs.setWriteBudget(-1)
	s2 := mustOpen(t, dir, Options{FS: ffs})
	if got := s2.AppendRecords(); len(got) != 1 || got[0].NewHash != first.NewHash {
		t.Fatalf("recovered %d records after torn write, want the first only", len(got))
	}
	assertNoTemps(t, filepath.Join(dir, "appends"))
}

// TestCrashBeforeRename simulates a crash between writing the temp file
// and renaming it into place.
func TestCrashBeforeRename(t *testing.T) {
	dir := t.TempDir()
	ffs := newFaultFS()
	s := mustOpen(t, dir, Options{FS: ffs})
	ffs.setFailRenames(true)
	if err := s.PutAppendRecord(testIntent(1)); err == nil {
		t.Fatalf("failed rename reported success")
	}
	s.Close()
	ffs.setFailRenames(false)
	if got := mustOpen(t, dir, Options{FS: ffs}).AppendRecords(); len(got) != 0 {
		t.Fatalf("recovered %d records, want 0", len(got))
	}
}

func TestFsyncFailureSurfaces(t *testing.T) {
	ffs := newFaultFS()
	s := mustOpen(t, t.TempDir(), Options{FS: ffs, Fsync: true})
	ffs.setFailSync(true)
	if err := s.PutAppendRecord(testIntent(1)); err == nil {
		t.Fatalf("failed fsync reported success")
	}
}

func TestArtifactPutGetAndRecover(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	key := "hash|rank-fds|psi=0.5"
	result := json.RawMessage(`{"fds":[{"lhs":["City"],"rhs":"Dep"}]}`)
	if err := s.PutArtifact(key, result); err != nil {
		t.Fatalf("PutArtifact: %v", err)
	}
	got, ok := s.GetArtifact(key)
	if !ok || !bytes.Equal(got, result) {
		t.Fatalf("GetArtifact = %q, %v", got, ok)
	}
	if _, ok := s.GetArtifact("missing"); ok {
		t.Fatalf("missing key reported present")
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{})
	got, ok = s2.GetArtifact(key)
	if !ok || !bytes.Equal(got, result) {
		t.Fatalf("recovered GetArtifact = %q, %v", got, ok)
	}
	if st := s2.Stats(); st.RecoveredArtifacts != 1 || st.ArtifactEntries != 1 {
		t.Fatalf("stats after recovery: %+v", st)
	}
}

func TestArtifactOverwriteSameKey(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if err := s.PutArtifact("k", json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutArtifact("k", json.RawMessage(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetArtifact("k")
	if !ok || string(got) != `{"v":2}` {
		t.Fatalf("GetArtifact = %q, %v", got, ok)
	}
	if st := s.Stats(); st.ArtifactEntries != 1 {
		t.Fatalf("ArtifactEntries = %d, want 1", st.ArtifactEntries)
	}
}

// TestArtifactEntryBudget proves LRU order: reading an old artifact
// protects it from eviction.
func TestArtifactEntryBudget(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{ArtifactMaxEntries: 2})
	for i := 0; i < 2; i++ {
		if err := s.PutArtifact(fmt.Sprintf("k%d", i), json.RawMessage(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.GetArtifact("k0"); !ok { // touch k0: k1 is now LRU
		t.Fatalf("k0 missing before eviction")
	}
	if err := s.PutArtifact("k2", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetArtifact("k1"); ok {
		t.Fatalf("LRU entry k1 survived eviction")
	}
	if _, ok := s.GetArtifact("k0"); !ok {
		t.Fatalf("recently used k0 was evicted")
	}
	st := s.Stats()
	if st.ArtifactEntries != 2 || st.ArtifactEvictions != 1 {
		t.Fatalf("stats after eviction: %+v", st)
	}
}

func TestArtifactByteBudget(t *testing.T) {
	big := json.RawMessage(`{"pad":"` + strings.Repeat("x", 400) + `"}`)
	s := mustOpen(t, t.TempDir(), Options{ArtifactMaxBytes: 1000})
	for i := 0; i < 4; i++ {
		if err := s.PutArtifact(fmt.Sprintf("k%d", i), big); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.ArtifactBytes > 1000 {
		t.Fatalf("ArtifactBytes = %d over the 1000 budget", st.ArtifactBytes)
	}
	if st.ArtifactEvictions == 0 {
		t.Fatalf("no evictions under byte pressure")
	}
	if _, ok := s.GetArtifact("k3"); !ok {
		t.Fatalf("newest artifact evicted")
	}
}

// TestArtifactBudgetEnforcedAtRecovery writes more artifacts than a
// later, smaller budget allows; the oversized tail must be evicted at
// boot, keeping the most recently written.
func TestArtifactBudgetEnforcedAtRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := s.PutArtifact(fmt.Sprintf("k%d", i), json.RawMessage(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{ArtifactMaxEntries: 2})
	st := s2.Stats()
	if st.ArtifactEntries != 2 {
		t.Fatalf("ArtifactEntries = %d after recovery, want 2", st.ArtifactEntries)
	}
	for _, key := range []string{"k3", "k4"} {
		if _, ok := s2.GetArtifact(key); !ok {
			t.Fatalf("recently written %s evicted at recovery", key)
		}
	}
}

// TestCorruptArtifactQuarantined flips a byte in a stored artifact; the
// read must miss, and the file must move to quarantine.
func TestCorruptArtifactQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.PutArtifact("k", json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "artifacts", artifactFile("k"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[bytes.Index(data, []byte(`"v":1`))+4] = '9' // result no longer matches the CRC
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetArtifact("k"); ok {
		t.Fatalf("corrupt artifact served")
	}
	if st := s.Stats(); st.Quarantined != 1 || st.ArtifactEntries != 0 {
		t.Fatalf("stats after corruption: %+v", st)
	}
	// And the same corruption discovered at boot is quarantined too.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{})
	if st := s2.Stats(); st.RecoveredArtifacts != 0 || st.Quarantined != 1 {
		t.Fatalf("stats after boot with corrupt artifact: %+v", st)
	}
}

func TestJournalAppendAndRecover(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		rec, _ := json.Marshal(map[string]any{"id": fmt.Sprintf("job-%06d", i), "state": "done"})
		if err := s.AppendJob(rec); err != nil {
			t.Fatalf("AppendJob: %v", err)
		}
	}
	if err := s.AppendJob([]byte("a\nb")); err == nil {
		t.Fatalf("multi-line record accepted")
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{})
	recs := s2.Jobs()
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
	var first struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(recs[0], &first); err != nil || first.ID != "job-000000" {
		t.Fatalf("first record %q (err %v)", recs[0], err)
	}
	if st := s2.Stats(); st.RecoveredJobs != 3 || st.JournalRecords != 3 {
		t.Fatalf("stats after journal recovery: %+v", st)
	}
}

// TestJournalTornTail appends garbage and an unterminated half-line to
// the journal; recovery must keep the valid prefix and drop the rest.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.AppendJob([]byte(`{"id":"job-000000"}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, "jobs", journalFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{\"id\":\"job-0000") // torn final append, no newline
	f.Close()

	s2 := mustOpen(t, dir, Options{})
	if recs := s2.Jobs(); len(recs) != 1 {
		t.Fatalf("recovered %d records, want 1", len(recs))
	}
	st := s2.Stats()
	if st.DroppedJobRecords != 1 {
		t.Fatalf("DroppedJobRecords = %d, want 1", st.DroppedJobRecords)
	}
	// The compaction rewrote the journal without the torn tail, so a
	// second boot is clean.
	s2.Close()
	s3 := mustOpen(t, dir, Options{})
	if st := s3.Stats(); st.DroppedJobRecords != 0 || st.RecoveredJobs != 1 {
		t.Fatalf("stats after recompaction boot: %+v", st)
	}
}

// TestJournalCompaction floods the journal past its keep budget; a boot
// must compact it to the newest records.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		rec, _ := json.Marshal(map[string]any{"id": fmt.Sprintf("job-%06d", i)})
		if err := s.AppendJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{JournalKeep: 4})
	recs := s2.Jobs()
	if len(recs) != 4 {
		t.Fatalf("recovered %d records, want 4", len(recs))
	}
	var last struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(recs[3], &last); err != nil || last.ID != "job-000009" {
		t.Fatalf("last record %q (err %v)", recs[3], err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "jobs", journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(data, []byte("\n")); got != 4 {
		t.Fatalf("compacted journal holds %d lines, want 4", got)
	}
}

// TestAppendAfterTornJournalWrite tears a journal append mid-line; the
// next boot must drop the torn tail and keep everything before it.
func TestAppendAfterTornJournalWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := newFaultFS()
	s := mustOpen(t, dir, Options{FS: ffs})
	if err := s.AppendJob([]byte(`{"id":"job-000000"}`)); err != nil {
		t.Fatal(err)
	}
	ffs.setWriteBudget(5)
	if err := s.AppendJob([]byte(`{"id":"job-000001"}`)); err == nil {
		t.Fatalf("torn append reported success")
	}
	if st := s.Stats(); st.JournalAppendErr != 1 {
		t.Fatalf("JournalAppendErr = %d, want 1", st.JournalAppendErr)
	}
	s.Close()

	ffs.setWriteBudget(-1)
	s2 := mustOpen(t, dir, Options{FS: ffs})
	if recs := s2.Jobs(); len(recs) != 1 || string(recs[0]) != `{"id":"job-000000"}` {
		t.Fatalf("recovered %v, want the first record only", recs)
	}
}

// TestRandomizedCrashRecovery is the end-to-end fault sweep: run a
// random workload, tear the filesystem at a random point, reopen, and
// assert everything that was durably written before the fault is still
// readable and everything else is absent — never a corrupt read.
func TestRandomizedCrashRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		dir := t.TempDir()
		ffs := newFaultFS()
		s := mustOpen(t, dir, Options{FS: ffs})
		durableRec := map[string]bool{}
		durableArt := map[string]string{}
		ops := 3 + rng.Intn(8)
		tearAt := rng.Intn(ops)
		for op := 0; op < ops; op++ {
			if op == tearAt {
				if rng.Intn(2) == 0 {
					ffs.setWriteBudget(int64(rng.Intn(20)))
				} else {
					ffs.setFailRenames(true)
				}
			}
			switch rng.Intn(3) {
			case 0:
				rec := testIntent(op)
				if err := s.PutAppendRecord(rec); err == nil {
					durableRec[rec.NewHash] = true
				}
			case 1:
				key := fmt.Sprintf("key-%d-%d", trial, op)
				val := fmt.Sprintf(`{"op":%d}`, op)
				if err := s.PutArtifact(key, json.RawMessage(val)); err == nil {
					durableArt[key] = val
				}
			case 2:
				rec := fmt.Sprintf(`{"id":"job-%06d"}`, op)
				_ = s.AppendJob([]byte(rec))
			}
		}
		s.Close()

		ffs.setWriteBudget(-1)
		ffs.setFailRenames(false)
		s2 := mustOpen(t, dir, Options{FS: ffs})
		got := map[string]bool{}
		for _, rec := range s2.AppendRecords() {
			got[rec.NewHash] = true
		}
		for hash := range durableRec {
			if !got[hash] {
				t.Fatalf("trial %d: durable intent %s lost", trial, hash[56:])
			}
		}
		for hash := range got {
			if !durableRec[hash] {
				t.Fatalf("trial %d: phantom intent %s recovered", trial, hash[56:])
			}
		}
		for key, want := range durableArt {
			data, ok := s2.GetArtifact(key)
			if !ok || string(data) != want {
				t.Fatalf("trial %d: durable artifact %s = %q, %v", trial, key, data, ok)
			}
		}
		for _, rec := range s2.Jobs() {
			if !json.Valid(rec) {
				t.Fatalf("trial %d: corrupt journal record %q recovered", trial, rec)
			}
		}
	}
}
