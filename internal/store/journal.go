package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
)

// The job journal is an append-only JSONL file of terminal job records:
// one line per job that reached done, failed, or canceled. The server
// replays it at boot so GET /v1/jobs keeps its history across restarts.
// Appends are the only write path while the daemon runs; a crash can at
// worst tear the final line, which recovery drops. When a boot finds
// more records than the configured keep budget, the journal is
// compacted (atomically rewritten) to the newest records.

const journalFile = "journal.jsonl"

// AppendJob appends one terminal job record (a single JSON object,
// already marshaled, without a trailing newline) to the journal.
func (s *Store) AppendJob(record []byte) error {
	if len(record) == 0 || bytes.IndexByte(record, '\n') >= 0 {
		return fmt.Errorf("store: job record must be a single non-empty line")
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.journal == nil {
		f, err := s.fsys.OpenAppend(filepath.Join(s.jobsDir, journalFile))
		if err != nil {
			s.journalAppendErr.Add(1)
			return fmt.Errorf("store: opening journal: %w", err)
		}
		s.journal = f
	}
	line := make([]byte, 0, len(record)+1)
	line = append(line, record...)
	line = append(line, '\n')
	if _, err := s.journal.Write(line); err != nil {
		s.journalAppendErr.Add(1)
		return fmt.Errorf("store: appending job record: %w", err)
	}
	if s.fsync {
		if err := s.journal.Sync(); err != nil {
			s.journalAppendErr.Add(1)
			return fmt.Errorf("store: syncing journal: %w", err)
		}
	}
	s.journalAppends.Add(1)
	s.journalLen++
	return nil
}

// Jobs returns the journal records recovered at Open, oldest first.
// Each element is one JSON line without its newline.
func (s *Store) Jobs() [][]byte { return s.jobRecords }

// recoverJournal replays the journal: valid JSON lines become the
// recovered records, a torn or garbled tail is dropped (counted, not
// fatal), and a journal holding more than keep records is compacted to
// the newest keep before the append handle is opened.
func (s *Store) recoverJournal(keep int) error {
	path := filepath.Join(s.jobsDir, journalFile)
	names, err := s.fsys.ReadDir(s.jobsDir)
	if err != nil {
		return fmt.Errorf("store: scanning jobs: %w", err)
	}
	s.sweepTemps(s.jobsDir, names)
	data, err := s.fsys.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: reading journal: %w", err)
	}
	var records [][]byte
	dropped, unterminated := 0, false
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			// A torn final append. Kept if it parses, but the journal is
			// rewritten either way: the next append must start a new line,
			// or it would fuse with this one and both be lost to the boot
			// after.
			data, unterminated = nil, true
		}
		if len(line) == 0 {
			continue
		}
		if !json.Valid(line) {
			dropped++
			continue
		}
		records = append(records, append([]byte(nil), line...))
	}
	compact := keep >= 0 && len(records) > keep
	if compact {
		dropped += len(records) - keep
		records = records[len(records)-keep:]
	}
	if compact || dropped > 0 || unterminated {
		var buf bytes.Buffer
		for _, rec := range records {
			buf.Write(rec)
			buf.WriteByte('\n')
		}
		if err := writeAtomic(s.fsys, path, buf.Bytes(), s.fsync); err != nil {
			return fmt.Errorf("store: compacting journal: %w", err)
		}
	}
	s.jobRecords = records
	s.journalLen = len(records)
	s.recoveredJobs = len(records)
	s.droppedJobRecords = dropped
	return nil
}
