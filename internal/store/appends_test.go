package store

import (
	"os"
	"path/filepath"
	"testing"
)

const apTail = "A,B\n4,z\n2,y\n"

// TestAppendRecordsSurfaceAtOpen: the store replays nothing itself — a
// surviving intent is handed to the server whole (the replay against
// the dataset files is server.Registry.RecoverAppends, enumerated crash
// by crash in server/crash_test.go) — while a malformed or misnamed
// record is quarantined rather than surfaced.
func TestAppendRecordsSurfaceAtOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := AppendRecord{
		ID: "stable-id", Name: "ds", Source: "upload",
		OldHash: "aaaa", NewHash: "bbbb", Epoch: 1, Bytes: 42, Rows: []byte(apTail),
	}
	if err := s.PutAppendRecord(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.PutAppendRecord(AppendRecord{OldHash: "aaaa", NewHash: "../x", Epoch: 1, Rows: []byte(apTail)}); err == nil {
		t.Fatal("path-escaping hash accepted")
	}
	s.Close()
	good, err := os.ReadFile(filepath.Join(dir, "appends", "bbbb"+appendExt))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"cccc" + appendExt: good,                // valid record under the wrong name
		"dddd" + appendExt: []byte("{not json"), // torn or foreign bytes
		"eeee" + appendExt: []byte(`{"old_hash":"aaaa","new_hash":"eeee","epoch":0,"rows":"QQ=="}`),
	} {
		if err := os.WriteFile(filepath.Join(dir, "appends", name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	pending := s2.AppendRecords()
	if len(pending) != 1 || pending[0].NewHash != rec.NewHash || pending[0].ID != rec.ID || string(pending[0].Rows) != apTail {
		t.Fatalf("pending = %+v, want the one valid record", pending)
	}
	if got := s2.Stats().Quarantined; got != 3 {
		t.Fatalf("Quarantined = %d, want 3", got)
	}
	if err := s2.RetireAppendRecord(rec.NewHash); err != nil {
		t.Fatal(err)
	}
	if err := s2.RetireAppendRecord(rec.NewHash); err != nil {
		t.Fatalf("retiring a retired record: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "appends", rec.NewHash+appendExt)); !os.IsNotExist(err) {
		t.Fatalf("record file still present (err=%v)", err)
	}
}

// TestAppendRecordFailedWriteLeavesNoIntent: if the intent itself cannot
// be durably written, no record may be left behind to replay later.
func TestAppendRecordFailedWriteLeavesNoIntent(t *testing.T) {
	ffs := newFaultFS()
	dir := t.TempDir()
	s, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ffs.setWriteBudget(4)
	rec := AppendRecord{ID: "x", OldHash: "aaaa", NewHash: "dddd", Epoch: 1, Rows: []byte(apTail)}
	if err := s.PutAppendRecord(rec); err == nil {
		t.Fatal("append record write succeeded under a 4-byte budget")
	}
	ffs.setWriteBudget(-1)
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(s2.AppendRecords()) != 0 {
		t.Fatal("torn intent survived recovery")
	}
}
