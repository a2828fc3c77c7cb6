package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// plant writes data into dir under name, or under fallback when name is
// no file name the filesystem takes.
func plant(t *testing.T, dir, name, fallback string, data []byte) {
	t.Helper()
	if name == "" || os.WriteFile(filepath.Join(dir, name), data, 0o644) != nil {
		if err := os.WriteFile(filepath.Join(dir, fallback), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func fileNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// FuzzRecover is boot recovery over one fuzzed file of each kind it
// reads, planted next to a valid one: an append intent (named after the
// new hash it decodes to, when it decodes), an artifact envelope (named
// after its key's address, when it decodes — envelopes carry mine-state
// and the other intermediates too) and the journal's last line. Open
// must succeed without panicking; every intent and artifact file left in
// place is one recovery surfaced, every other was quarantined; every
// surviving artifact reads back under its key with its CRC intact; every
// recovered job record is one JSON line, and a job appended after
// recovery reaches the next boot together with all of them. Seeds under
// testdata/fuzz/: valid files of each kind, a torn set (whose journal
// line parses but lost its newline), a bad-CRC set, and an intent that
// names a path outside its directory.
func FuzzRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, intent, envelope, journal []byte) {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{})
		if err := s.PutAppendRecord(testIntent(1)); err != nil {
			t.Fatal(err)
		}
		if err := s.PutArtifact("k", json.RawMessage(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendJob([]byte(`{"id":"job-000000"}`)); err != nil {
			t.Fatal(err)
		}
		s.Close()

		var rec AppendRecord
		if json.Unmarshal(intent, &rec) != nil || rec.NewHash != filepath.Base(rec.NewHash) {
			rec.NewHash = "" // no name to take: planted as .apd
		}
		plant(t, filepath.Join(dir, "appends"), rec.NewHash+appendExt, "fuzz"+appendExt, intent)
		var env artifactEnvelope
		name := ""
		if json.Unmarshal(envelope, &env) == nil {
			name = artifactFile(env.Key)
		}
		plant(t, filepath.Join(dir, "artifacts"), name, "fuzz"+artifactExt, envelope)
		jf, err := os.OpenFile(filepath.Join(dir, "jobs", journalFile), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := jf.Write(journal); err != nil {
			t.Fatal(err)
		}
		jf.Close()

		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s2.Close()

		surfaced := map[string]bool{}
		for _, rec := range s2.AppendRecords() {
			if !rec.valid() {
				t.Fatalf("invalid intent surfaced: %+v", rec)
			}
			surfaced[rec.NewHash+appendExt] = true
		}
		for _, name := range fileNames(t, filepath.Join(dir, "appends")) {
			if !surfaced[name] {
				t.Fatalf("intent file %q neither surfaced nor quarantined", name)
			}
		}

		s2.amu.Lock()
		indexed := map[string]string{} // file → key
		for key, e := range s2.artifacts {
			indexed[e.file] = key
		}
		s2.amu.Unlock()
		files := fileNames(t, filepath.Join(dir, "artifacts"))
		if len(files) != len(indexed) {
			t.Fatalf("%d artifact files left, %d indexed", len(files), len(indexed))
		}
		for _, name := range files {
			key, ok := indexed[name]
			if !ok || artifactFile(key) != name {
				t.Fatalf("artifact file %q left in place under key %q", name, key)
			}
			if _, ok := s2.GetArtifact(key); !ok {
				t.Fatalf("surviving artifact %q does not read back", key)
			}
		}

		jobs := s2.Jobs()
		for _, r := range jobs {
			if !json.Valid(r) || bytes.IndexByte(r, '\n') >= 0 {
				t.Fatalf("journal record %q recovered", r)
			}
		}
		if err := s2.AppendJob([]byte(`{"id":"job-000001"}`)); err != nil {
			t.Fatal(err)
		}
		s2.Close()
		s3 := mustOpen(t, dir, Options{})
		if want := append(jobs, []byte(`{"id":"job-000001"}`)); !reflect.DeepEqual(s3.Jobs(), want) {
			t.Fatalf("after one more append the journal holds %q, want %q", s3.Jobs(), want)
		}
	})
}
