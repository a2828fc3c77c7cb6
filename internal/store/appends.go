package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
)

// Dataset appends are made crash-safe with intent records: the record —
// carrying the appended CSV body and the identity transition (old hash,
// new hash, epoch) — is durably written BEFORE any dataset state
// changes, and retired only after the new dataset file exists and the
// old one is gone. The store keeps the records; the server's registry
// replays the survivors at boot against the colstore directory
// (server.Registry.RecoverAppends), where each step is idempotent, so
// appended rows are never lost and never applied twice.

const appendExt = ".apd"

// AppendRecord is one durable append intent.
type AppendRecord struct {
	// ID is the dataset's stable short id (survives the hash change).
	ID     string `json:"id"`
	Name   string `json:"name"`
	Source string `json:"source"`
	// OldHash identifies the dataset state the append extends; NewHash
	// (also the record's file name) identifies the state it produces.
	OldHash string `json:"old_hash"`
	NewHash string `json:"new_hash"`
	// Epoch is the dataset epoch AFTER the append.
	Epoch int `json:"epoch"`
	// Bytes is the dataset's source size AFTER the append.
	Bytes int64 `json:"bytes"`
	// Rows is the appended CSV body (header line plus data rows).
	Rows []byte `json:"rows"`
}

func (rec AppendRecord) valid() bool {
	ok := func(h string) bool { return h != "" && h == filepath.Base(h) }
	return ok(rec.OldHash) && ok(rec.NewHash) && rec.Epoch >= 1 && len(rec.Rows) > 0
}

func (s *Store) appendRecordPath(newHash string) string {
	return filepath.Join(s.appendsDir, newHash+appendExt)
}

// PutAppendRecord durably writes an append intent. It must be on disk
// before the append mutates any dataset state.
func (s *Store) PutAppendRecord(rec AppendRecord) error {
	if !rec.valid() {
		return fmt.Errorf("store: invalid append record %q -> %q", rec.OldHash, rec.NewHash)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding append record: %w", err)
	}
	if err := writeAtomic(s.fsys, s.appendRecordPath(rec.NewHash), data, s.fsync); err != nil {
		return fmt.Errorf("store: writing append record: %w", err)
	}
	s.appendRecordWrites.Add(1)
	return nil
}

// RetireAppendRecord removes an applied append intent. Missing files are
// not an error (recovery may already have retired it).
func (s *Store) RetireAppendRecord(newHash string) error {
	err := s.fsys.Remove(s.appendRecordPath(newHash))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// AppendRecords returns the intents found at Open — appends whose
// protocol a crash interrupted — for the server to replay.
func (s *Store) AppendRecords() []AppendRecord { return s.pendingAppends }

// recoverAppends loads the surviving append intents; malformed or
// misnamed records are quarantined.
func (s *Store) recoverAppends() error {
	names, err := s.fsys.ReadDir(s.appendsDir)
	if err != nil {
		return fmt.Errorf("store: scanning appends: %w", err)
	}
	for _, name := range s.sweepTemps(s.appendsDir, names) {
		path := filepath.Join(s.appendsDir, name)
		data, err := s.fsys.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: reading %s: %w", path, err)
		}
		var rec AppendRecord
		if jerr := json.Unmarshal(data, &rec); jerr != nil || !rec.valid() || rec.NewHash+appendExt != name {
			s.Quarantine(path)
			continue
		}
		s.pendingAppends = append(s.pendingAppends, rec)
	}
	return nil
}
