// Package store is the dependency-free durable storage subsystem behind
// the structmined daemon's warm restarts. It owns an on-disk directory
// with three kinds of state:
//
//   - a persistent artifact cache: completed task results — and each
//     dataset's FD state, which makes re-mining after an append a
//     delta — spilled to
//     content-addressed JSON files with entry and byte budgets
//     (artifacts.go);
//   - an append-only job journal: one JSON line per terminal job record
//     (journal.go), so GET /v1/jobs survives restarts;
//   - append intent records (appends.go): the durable half of the
//     dataset append protocol, replayed by the registry at boot.
//
// Datasets themselves are not the store's business: they live in
// self-describing colstore files under ColstoreDir, written through
// the store's FS by internal/colstore. The store only carries their
// metadata type (DatasetMeta); it imports no other package of this
// module. Directories an older build kept (datasets/, minestate/) are
// neither created nor read.
//
// Every write is atomic (temp → optional fsync → rename), so a crash —
// including kill -9 mid-write — leaves either the previous durable
// state or the new one, never a torn file. Boot-time recovery ignores
// leftover temp files, quarantines anything that fails its checksum,
// and tolerates a torn journal tail. All filesystem access goes through
// the FS interface (fs.go) so tests can inject short writes, rename
// failures, and torn files.
package store

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// DatasetMeta is the registration metadata a durable dataset file
// carries in its colstore tail.
type DatasetMeta struct {
	// Hash is the full SHA-256 of the original CSV bytes, advanced by
	// every append — the dataset's registry identity and its file name.
	Hash string
	// Name is the display name given at registration.
	Name string
	// Source records where the data came from ("upload" or a path).
	Source string
	// Bytes is the size of the original CSV source plus every appended
	// body.
	Bytes int64
	// ID is the dataset's stable short id, assigned at first
	// registration and kept across appends even though Hash changes.
	ID string
	// Epoch counts applied appends: (Hash, Epoch) is the dataset's
	// cache identity. Zero for freshly registered content.
	Epoch int
}

// Options tunes a Store. Zero values select the defaults.
type Options struct {
	// Fsync forces an fsync of every data file (and its directory)
	// before a write is considered durable. Off, the store is still
	// crash-consistent — renames keep files atomic — but writes from the
	// final moments before an OS crash or power loss may be lost.
	Fsync bool
	// ArtifactMaxEntries bounds the artifact files kept on disk
	// (default 4096; negative = unlimited).
	ArtifactMaxEntries int
	// ArtifactMaxBytes bounds the total artifact bytes kept on disk
	// (default 256 MiB; negative = unlimited).
	ArtifactMaxBytes int64
	// JournalKeep bounds the job journal: when a boot finds more
	// records, the journal is compacted to the newest JournalKeep
	// (default 4096; negative = unlimited).
	JournalKeep int
	// FS substitutes the filesystem (tests); nil selects the real one.
	FS FS
}

func (o Options) normalized() Options {
	if o.ArtifactMaxEntries == 0 {
		o.ArtifactMaxEntries = 4096
	}
	if o.ArtifactMaxBytes == 0 {
		o.ArtifactMaxBytes = 256 << 20
	}
	if o.JournalKeep == 0 {
		o.JournalKeep = 4096
	}
	if o.FS == nil {
		o.FS = OS()
	}
	return o
}

// Store is one mounted data directory. All methods are safe for
// concurrent use.
type Store struct {
	fsys  FS
	fsync bool
	root  string

	artifactsDir  string
	quarantineDir string
	jobsDir       string
	appendsDir    string

	pendingAppends []AppendRecord // recovered at Open, replayed by the server

	amu        sync.Mutex
	artifacts  map[string]*artifactEntry
	artBytes   int64
	artSeq     uint64
	maxEntries int
	maxBytes   int64

	jmu        sync.Mutex
	journal    File
	journalLen int
	jobRecords [][]byte // recovered at Open, consumed by the server

	// Counters behind the structmine_store_* metric families.
	artifactWrites     atomic.Uint64
	artifactWriteErr   atomic.Uint64
	artifactEvictions  atomic.Uint64
	journalAppends     atomic.Uint64
	journalAppendErr   atomic.Uint64
	quarantined        atomic.Uint64
	appendRecordWrites atomic.Uint64
	recoveredArtifacts int
	recoveredJobs      int
	droppedJobRecords  int
}

// Open mounts (creating if needed) the store rooted at dir and runs
// recovery: pending append intents are loaded, the artifact index is
// rebuilt, the job journal is replayed (and compacted when oversized),
// and anything corrupt is quarantined rather than trusted. Leftover
// temp files from interrupted writes are deleted.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.normalized()
	s := &Store{
		fsys:          opts.FS,
		fsync:         opts.Fsync,
		root:          dir,
		artifactsDir:  filepath.Join(dir, "artifacts"),
		quarantineDir: filepath.Join(dir, "quarantine"),
		jobsDir:       filepath.Join(dir, "jobs"),
		appendsDir:    filepath.Join(dir, "appends"),
		artifacts:     map[string]*artifactEntry{},
		maxEntries:    opts.ArtifactMaxEntries,
		maxBytes:      opts.ArtifactMaxBytes,
	}
	for _, d := range []string{s.artifactsDir, s.quarantineDir, s.jobsDir, s.appendsDir} {
		if err := s.fsys.MkdirAll(d); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", d, err)
		}
	}
	if err := s.recoverAppends(); err != nil {
		return nil, err
	}
	if err := s.recoverArtifacts(); err != nil {
		return nil, err
	}
	if err := s.recoverJournal(opts.JournalKeep); err != nil {
		return nil, err
	}
	return s, nil
}

// Close releases the journal handle. The store must not be used after.
func (s *Store) Close() error {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.journal == nil {
		return nil
	}
	err := s.journal.Close()
	s.journal = nil
	return err
}

// ColstoreDir returns (creating it if needed) the directory for the
// columnar dataset files, which live under the same durable root as
// everything else so one -persist flag owns all state.
func (s *Store) ColstoreDir() (string, error) {
	dir := filepath.Join(s.root, "colstore")
	if err := s.fsys.MkdirAll(dir); err != nil {
		return "", fmt.Errorf("store: creating %s: %w", dir, err)
	}
	return dir, nil
}

// FS returns the filesystem the store writes through, so sibling
// subsystems (colstore) share the same write discipline and fault
// injection in tests.
func (s *Store) FS() FS { return s.fsys }

// FsyncEnabled reports whether durable writes fsync before rename.
func (s *Store) FsyncEnabled() bool { return s.fsync }

// Quarantine moves a corrupt file out of the live tree so recovery
// never trusts it again but an operator can still inspect it. The
// registry calls it too: its colstore files live under the same root.
func (s *Store) Quarantine(path string) {
	s.quarantined.Add(1)
	dst := filepath.Join(s.quarantineDir, filepath.Base(path))
	if err := s.fsys.Rename(path, dst); err != nil {
		_ = s.fsys.Remove(path)
	}
}

// sweepTemps deletes leftover temp files from interrupted atomic writes.
func (s *Store) sweepTemps(dir string, names []string) []string {
	live := names[:0]
	for _, name := range names {
		if strings.HasPrefix(name, TempPrefix) {
			_ = s.fsys.Remove(filepath.Join(dir, name))
			continue
		}
		live = append(live, name)
	}
	return live
}

// Stats is a snapshot of the store's observable state, exported as the
// structmine_store_* metric families.
type Stats struct {
	ArtifactEntries    int
	ArtifactBytes      int64
	ArtifactWrites     uint64
	ArtifactWriteErr   uint64
	ArtifactEvictions  uint64
	JournalAppends     uint64
	JournalAppendErr   uint64
	JournalRecords     int
	Quarantined        uint64
	AppendRecordWrites uint64
	RecoveredArtifacts int
	RecoveredJobs      int
	DroppedJobRecords  int
}

// Stats returns the current counters and gauges.
func (s *Store) Stats() Stats {
	s.amu.Lock()
	entries, bytes := len(s.artifacts), s.artBytes
	s.amu.Unlock()
	s.jmu.Lock()
	journalLen := s.journalLen
	s.jmu.Unlock()
	return Stats{
		ArtifactEntries:    entries,
		ArtifactBytes:      bytes,
		ArtifactWrites:     s.artifactWrites.Load(),
		ArtifactWriteErr:   s.artifactWriteErr.Load(),
		ArtifactEvictions:  s.artifactEvictions.Load(),
		JournalAppends:     s.journalAppends.Load(),
		JournalAppendErr:   s.journalAppendErr.Load(),
		JournalRecords:     journalLen,
		Quarantined:        s.quarantined.Load(),
		AppendRecordWrites: s.appendRecordWrites.Load(),
		RecoveredArtifacts: s.recoveredArtifacts,
		RecoveredJobs:      s.recoveredJobs,
		DroppedJobRecords:  s.droppedJobRecords,
	}
}
