package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strings"
)

// The persistent artifact cache spills completed task results, and each
// dataset's FD state, to content-addressed files:
// the file name is the SHA-256 of the cache key, so the same key always
// lands on the same file. Each file is a JSON envelope carrying the key
// (needed to rebuild the index on boot), a write sequence number (an
// approximate recency order across restarts), and a CRC32 of the result
// bytes. Entry and byte budgets evict least-recently-used artifacts;
// anything that fails validation on read is quarantined.

const artifactExt = ".art"

// artifactEnvelope is the on-disk JSON shape of one artifact.
type artifactEnvelope struct {
	Key    string          `json:"key"`
	Seq    uint64          `json:"seq"`
	CRC32  uint32          `json:"crc32"`
	Result json.RawMessage `json:"result"`
}

// artifactEntry is one indexed artifact; the result bytes stay on disk.
type artifactEntry struct {
	key  string
	file string
	size int64
	used uint64 // recency stamp: larger = more recently used
}

func artifactFile(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + artifactExt
}

// PutArtifact durably stores one completed result (already marshaled to
// JSON) under its cache key, evicting least-recently-used artifacts if
// the configured budgets are exceeded.
func (s *Store) PutArtifact(key string, result json.RawMessage) error {
	name := artifactFile(key)
	s.amu.Lock()
	s.artSeq++
	seq := s.artSeq
	s.amu.Unlock()
	data, err := json.Marshal(artifactEnvelope{
		Key: key, Seq: seq, CRC32: crc32.ChecksumIEEE(result), Result: result,
	})
	if err != nil {
		return fmt.Errorf("store: encoding artifact: %w", err)
	}
	path := filepath.Join(s.artifactsDir, name)
	if err := writeAtomic(s.fsys, path, data, s.fsync); err != nil {
		s.artifactWriteErr.Add(1)
		return fmt.Errorf("store: writing artifact: %w", err)
	}
	s.artifactWrites.Add(1)

	s.amu.Lock()
	if prior, ok := s.artifacts[key]; ok {
		s.artBytes -= prior.size
	}
	s.artifacts[key] = &artifactEntry{key: key, file: name, size: int64(len(data)), used: seq}
	s.artBytes += int64(len(data))
	evict := s.collectEvictionsLocked()
	s.amu.Unlock()
	for _, e := range evict {
		_ = s.fsys.Remove(filepath.Join(s.artifactsDir, e.file))
		s.artifactEvictions.Add(1)
	}
	return nil
}

// collectEvictionsLocked removes index entries beyond the budgets,
// least recently used first, and returns them for file deletion outside
// the lock. The caller holds s.amu.
func (s *Store) collectEvictionsLocked() []*artifactEntry {
	if (s.maxEntries < 0 || len(s.artifacts) <= s.maxEntries) &&
		(s.maxBytes < 0 || s.artBytes <= s.maxBytes) {
		return nil
	}
	byAge := make([]*artifactEntry, 0, len(s.artifacts))
	for _, e := range s.artifacts {
		byAge = append(byAge, e)
	}
	sort.Slice(byAge, func(i, j int) bool { return byAge[i].used < byAge[j].used })
	var evict []*artifactEntry
	for _, e := range byAge {
		over := (s.maxEntries >= 0 && len(s.artifacts) > s.maxEntries) ||
			(s.maxBytes >= 0 && s.artBytes > s.maxBytes)
		if !over {
			break
		}
		delete(s.artifacts, e.key)
		s.artBytes -= e.size
		evict = append(evict, e)
	}
	return evict
}

// GetArtifact returns the stored result bytes for a cache key. A file
// that fails its checksum (or no longer parses) is quarantined and
// reported as a miss.
func (s *Store) GetArtifact(key string) (json.RawMessage, bool) {
	s.amu.Lock()
	e, ok := s.artifacts[key]
	if ok {
		s.artSeq++
		e.used = s.artSeq
	}
	s.amu.Unlock()
	if !ok {
		return nil, false
	}
	path := filepath.Join(s.artifactsDir, e.file)
	data, err := s.fsys.ReadFile(path)
	if err != nil {
		s.dropArtifact(key)
		return nil, false
	}
	var env artifactEnvelope
	if err := json.Unmarshal(data, &env); err != nil ||
		env.Key != key || crc32.ChecksumIEEE(env.Result) != env.CRC32 {
		s.dropArtifact(key)
		s.Quarantine(path)
		return nil, false
	}
	return env.Result, true
}

func (s *Store) dropArtifact(key string) {
	s.amu.Lock()
	if e, ok := s.artifacts[key]; ok {
		delete(s.artifacts, key)
		s.artBytes -= e.size
	}
	s.amu.Unlock()
}

// recoverArtifacts rebuilds the index from the artifact directory:
// every envelope is fully validated (JSON, key address, CRC32), corrupt
// entries are quarantined, and the budgets are enforced on what
// remains.
func (s *Store) recoverArtifacts() error {
	names, err := s.fsys.ReadDir(s.artifactsDir)
	if err != nil {
		return fmt.Errorf("store: scanning artifacts: %w", err)
	}
	var maxSeq uint64
	for _, name := range s.sweepTemps(s.artifactsDir, names) {
		path := filepath.Join(s.artifactsDir, name)
		if !strings.HasSuffix(name, artifactExt) {
			s.Quarantine(path)
			continue
		}
		data, err := s.fsys.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: reading %s: %w", path, err)
		}
		var env artifactEnvelope
		if err := json.Unmarshal(data, &env); err != nil ||
			artifactFile(env.Key) != name || crc32.ChecksumIEEE(env.Result) != env.CRC32 {
			s.Quarantine(path)
			continue
		}
		s.artifacts[env.Key] = &artifactEntry{
			key: env.Key, file: name, size: int64(len(data)), used: env.Seq,
		}
		s.artBytes += int64(len(data))
		if env.Seq > maxSeq {
			maxSeq = env.Seq
		}
	}
	s.amu.Lock()
	s.artSeq = maxSeq
	evict := s.collectEvictionsLocked()
	s.recoveredArtifacts = len(s.artifacts)
	s.amu.Unlock()
	for _, e := range evict {
		_ = s.fsys.Remove(filepath.Join(s.artifactsDir, e.file))
		s.artifactEvictions.Add(1)
	}
	return nil
}
