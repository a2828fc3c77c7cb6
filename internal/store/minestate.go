package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
)

// Mine-state files persist per-dataset miner state (LIMBO DCF-trees,
// minimal FD sets) across epochs so a re-mine after an append absorbs
// only the appended tuples. They are caches, not sources of truth: a
// missing or corrupt file just means the next mine runs from scratch,
// so unlike artifacts they need no quarantine ceremony — bad files are
// deleted on read.
//
// Envelope: magic "SMMS" | uint16 version | uvarint epoch | payload |
// uint32 CRC32-IEEE (covering everything before it).

const (
	minestateDirName = "minestate"
	minestateExt     = ".ms"
	minestateVersion = 1
)

var minestateMagic = [4]byte{'S', 'M', 'M', 'S'}

func (s *Store) minestatePath(datasetID, kind string) (string, error) {
	name := datasetID + "." + kind + minestateExt
	if datasetID == "" || kind == "" || name != filepath.Base(name) {
		return "", fmt.Errorf("store: invalid mine-state key %q/%q", datasetID, kind)
	}
	return filepath.Join(s.minestateDir, name), nil
}

// PutMineState durably stores a mine-state blob for (datasetID, kind),
// stamped with the dataset epoch it was computed at. One file per key:
// older epochs are overwritten atomically.
func (s *Store) PutMineState(datasetID, kind string, epoch int, payload []byte) error {
	path, err := s.minestatePath(datasetID, kind)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, len(payload)+16)
	buf = append(buf, minestateMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, minestateVersion)
	buf = binary.AppendUvarint(buf, uint64(epoch))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	if err := writeAtomic(s.fsys, path, buf, s.fsync); err != nil {
		s.minestateWriteErr.Add(1)
		return fmt.Errorf("store: writing mine-state: %w", err)
	}
	s.minestateWrites.Add(1)
	return nil
}

// GetMineState loads the mine-state blob for (datasetID, kind) and the
// epoch it was computed at. A missing, corrupt, or future-versioned
// file reports ok=false (and is deleted), never an error: the caller
// falls back to a from-scratch run.
func (s *Store) GetMineState(datasetID, kind string) (payload []byte, epoch int, ok bool) {
	path, err := s.minestatePath(datasetID, kind)
	if err != nil {
		return nil, 0, false
	}
	data, err := s.fsys.ReadFile(path)
	if err != nil {
		return nil, 0, false
	}
	drop := func() ([]byte, int, bool) {
		_ = s.fsys.Remove(path)
		return nil, 0, false
	}
	if len(data) < 4+2+1+4 || [4]byte(data[:4]) != minestateMagic {
		return drop()
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if binary.LittleEndian.Uint32(tail) != crc32.ChecksumIEEE(body) {
		return drop()
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != minestateVersion {
		return drop()
	}
	e, n := binary.Uvarint(body[6:])
	if n <= 0 || e > 1<<31 {
		return drop()
	}
	return body[6+n:], int(e), true
}
