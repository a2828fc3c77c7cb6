package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"path/filepath"

	"structmine/internal/relation"
)

// The dataset snapshot (<hash>.snap under datasets/) is the format
// releases before the single .col format kept resident datasets in: a
// versioned binary image of a parsed relation.Relation plus its
// registration metadata:
//
//	magic "SMSN" | uint16 version | payload | uint32 CRC32-IEEE
//
// The payload is a sequence of uvarint-length-prefixed strings and
// uvarint counts followed by the n×m little-endian int32 row block; the
// trailing CRC covers the magic, version, and payload. Value ids are
// stored in interning order, so a decoded relation carries the ids of
// the original parse.
//
// This build never writes the format. It keeps the decoder for one
// release as a one-way boot migration (MigrateSnapshots); this file is
// the store's only use of internal/relation and goes with the decoder.

var snapshotMagic = [4]byte{'S', 'M', 'S', 'N'}

// snapshotVersion is the newest version the decoder reads. Version 2
// added the stable dataset id and the append epoch after the source
// size; version 1 snapshots decode with id empty and epoch zero.
const snapshotVersion = 2

const snapshotExt = ".snap"

// ErrCorruptSnapshot reports a snapshot that failed its checksum or
// structural validation; the migration quarantines such files.
var ErrCorruptSnapshot = errors.New("store: corrupt snapshot")

// MigrateSnapshots converts every legacy datasets/<hash>.snap into the
// current dataset format: each snapshot is decoded, handed to write
// (which must make the dataset durable before returning nil), and only
// then removed. Undecodable or misnamed files are quarantined; a
// snapshot that cannot be read, written or removed stays in place for
// the next boot and the first such error is returned. Run it before
// append intents are replayed, so an intent left by a snapshot-writing
// build is settled against the migrated files.
func (s *Store) MigrateSnapshots(write func(DatasetMeta, *relation.Relation) error) error {
	dir := filepath.Join(s.root, "datasets")
	names, err := s.fsys.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: scanning legacy snapshots: %w", err)
	}
	var first error
	for _, name := range s.sweepTemps(dir, names) {
		path := filepath.Join(dir, name)
		data, err := s.fsys.ReadFile(path)
		if err == nil {
			meta, rel, derr := decodeSnapshot(data)
			if derr != nil || meta.Hash+snapshotExt != name {
				s.quarantine(path)
				continue
			}
			if err = write(meta, rel); err == nil {
				err = s.fsys.Remove(path)
			}
		}
		if err != nil && first == nil {
			first = fmt.Errorf("store: migrating %s: %w", path, err)
		}
	}
	_ = s.fsys.Remove(dir) // succeeds only once the directory is empty
	return first
}

// snapReader parses the payload with explicit bounds checks so a
// corrupt length prefix yields ErrCorruptSnapshot instead of a panic or
// an allocation bomb.
type snapReader struct {
	buf []byte
	off int
}

func (r *snapReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint at offset %d", ErrCorruptSnapshot, r.off)
	}
	r.off += n
	return v, nil
}

// count reads a uvarint that counts elements of at least elemSize bytes
// each, rejecting values the remaining payload cannot possibly hold.
func (r *snapReader) count(elemSize int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.buf)-r.off)/uint64(elemSize) {
		return 0, fmt.Errorf("%w: count %d exceeds remaining payload", ErrCorruptSnapshot, v)
	}
	return int(v), nil
}

func (r *snapReader) string() (string, error) {
	n, err := r.count(1)
	if err != nil {
		return "", err
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s, nil
}

// decodeSnapshot verifies and parses snapshot bytes back into the
// registration metadata and the relation.
func decodeSnapshot(data []byte) (DatasetMeta, *relation.Relation, error) {
	var meta DatasetMeta
	if len(data) < 4+2+4 {
		return meta, nil, fmt.Errorf("%w: %d bytes is shorter than the envelope", ErrCorruptSnapshot, len(data))
	}
	if [4]byte(data[:4]) != snapshotMagic {
		return meta, nil, fmt.Errorf("%w: bad magic %q", ErrCorruptSnapshot, data[:4])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return meta, nil, fmt.Errorf("%w: CRC32 %08x, computed %08x", ErrCorruptSnapshot, got, want)
	}
	version := binary.LittleEndian.Uint16(data[4:6])
	if version < 1 || version > snapshotVersion {
		return meta, nil, fmt.Errorf("%w: version %d, this build reads 1..%d", ErrCorruptSnapshot, version, snapshotVersion)
	}

	r := &snapReader{buf: body, off: 6}
	var err error
	read := func(dst *string) {
		if err == nil {
			*dst, err = r.string()
		}
	}
	read(&meta.Hash)
	read(&meta.Name)
	read(&meta.Source)
	if err != nil {
		return meta, nil, err
	}
	csvBytes, err := r.uvarint()
	if err != nil || csvBytes > math.MaxInt64 {
		return meta, nil, fmt.Errorf("%w: bad source size", errOr(err, ErrCorruptSnapshot))
	}
	meta.Bytes = int64(csvBytes)
	if version >= 2 {
		read(&meta.ID)
		if err != nil {
			return meta, nil, err
		}
		epoch, eerr := r.uvarint()
		if eerr != nil || epoch > math.MaxInt32 {
			return meta, nil, fmt.Errorf("%w: bad epoch", errOr(eerr, ErrCorruptSnapshot))
		}
		meta.Epoch = int(epoch)
	}

	var raw relation.Raw
	read(&raw.Name)
	if err != nil {
		return meta, nil, err
	}
	m, err := r.count(1)
	if err != nil {
		return meta, nil, err
	}
	raw.Attrs = make([]string, m)
	for i := range raw.Attrs {
		read(&raw.Attrs[i])
	}
	if err != nil {
		return meta, nil, err
	}
	d, err := r.count(2) // ≥ 1 byte attr varint + ≥ 1 byte string length
	if err != nil {
		return meta, nil, err
	}
	raw.ValueAttr = make([]int, d)
	raw.ValueStr = make([]string, d)
	for i := 0; i < d; i++ {
		a, aerr := r.uvarint()
		if aerr != nil {
			return meta, nil, aerr
		}
		if a > math.MaxInt32 {
			return meta, nil, fmt.Errorf("%w: value attribute %d out of range", ErrCorruptSnapshot, a)
		}
		raw.ValueAttr[i] = int(a)
		read(&raw.ValueStr[i])
		if err != nil {
			return meta, nil, err
		}
	}
	elem := 4 * m
	if elem == 0 {
		elem = 1 // a zero-attribute relation still bounds n by the payload
	}
	n, err := r.count(elem)
	if err != nil {
		return meta, nil, err
	}
	raw.Rows = make([][]int32, n)
	cells := make([]int32, n*m) // one backing block, carved per row
	for t := range raw.Rows {
		row := cells[t*m : (t+1)*m : (t+1)*m]
		for a := range row {
			row[a] = int32(binary.LittleEndian.Uint32(r.buf[r.off:]))
			r.off += 4
		}
		raw.Rows[t] = row
	}
	if r.off != len(body) {
		return meta, nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorruptSnapshot, len(body)-r.off)
	}
	rel, err := relation.FromRaw(raw)
	if err != nil {
		return meta, nil, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	return meta, rel, nil
}

func errOr(err, fallback error) error {
	if err != nil {
		return err
	}
	return fallback
}
