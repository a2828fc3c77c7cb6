package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"structmine/internal/relation"
)

// The snapshot format has no writer in this tree, so the decoder is
// tested against committed files: testdata/v2.snap was written by the
// last snapshot-writing commit's encodeSnapshot from fixtureCSV, and
// testdata/v1.snap by the same encoder with the version-2 fields (id,
// epoch) left out. The CSV exercises explicit and empty NULLs, one
// string under two attributes, and a quoted comma.
const fixtureCSV = "City,DepName,Budget\nBoston,Boston,10\nNULL,Sales,20\n,Sales,10\n\"a,b\",R&D,30\nBoston,Sales,20\n"

func fixtureHash() string {
	sum := sha256.Sum256([]byte(fixtureCSV))
	return hex.EncodeToString(sum[:])
}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func csvBytes(t *testing.T, rel *relation.Relation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rel.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return buf.Bytes()
}

// TestDecodeSnapshotFixtures: both format versions decode to the
// metadata they were written with and to a relation indistinguishable
// from a fresh parse of the source — same value ids, same dictionary,
// same WriteCSV bytes.
func TestDecodeSnapshotFixtures(t *testing.T) {
	want, err := relation.ReadCSV("fixture.csv", strings.NewReader(fixtureCSV))
	if err != nil {
		t.Fatal(err)
	}
	hash := fixtureHash()
	base := DatasetMeta{Hash: hash, Name: "fixture.csv", Source: "upload", Bytes: int64(len(fixtureCSV))}
	withID := base
	withID.ID = hash[:12]
	for _, tc := range []struct {
		file string
		meta DatasetMeta
	}{{"v1.snap", base}, {"v2.snap", withID}} {
		meta, rel, err := decodeSnapshot(readFixture(t, tc.file))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if meta != tc.meta {
			t.Fatalf("%s: meta %+v, want %+v", tc.file, meta, tc.meta)
		}
		if rel.N() != want.N() || rel.M() != want.M() || rel.D() != want.D() {
			t.Fatalf("%s: shape (%d,%d,%d), want (%d,%d,%d)", tc.file,
				rel.N(), rel.M(), rel.D(), want.N(), want.M(), want.D())
		}
		for id := int32(0); id < int32(want.D()); id++ {
			if rel.ValueString(id) != want.ValueString(id) || rel.ValueAttr(id) != want.ValueAttr(id) {
				t.Fatalf("%s: value id %d diverged", tc.file, id)
			}
		}
		for tup := 0; tup < want.N(); tup++ {
			for a := 0; a < want.M(); a++ {
				if rel.Value(tup, a) != want.Value(tup, a) {
					t.Fatalf("%s: cell (%d,%d) diverged", tc.file, tup, a)
				}
			}
		}
		if !bytes.Equal(csvBytes(t, rel), csvBytes(t, want)) {
			t.Fatalf("%s: WriteCSV bytes diverged", tc.file)
		}
		// Attribute-qualified interning: "Boston" under City and under
		// DepName must remain distinct values.
		if rel.Value(0, 0) == rel.Value(0, 1) {
			t.Fatalf("%s: attribute-qualified values collapsed", tc.file)
		}
	}
}

// TestSnapshotRejectsCorruption flips every byte of a valid snapshot in
// turn; each mutation must be rejected (the CRC covers everything) and
// must never panic.
func TestSnapshotRejectsCorruption(t *testing.T) {
	data := readFixture(t, "v2.snap")
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x41
		if _, _, err := decodeSnapshot(mut); err == nil {
			t.Fatalf("byte %d: corruption accepted", i)
		}
	}
	for cut := 0; cut < len(data); cut += 7 {
		if _, _, err := decodeSnapshot(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestSnapshotRejectsFutureVersion(t *testing.T) {
	data := readFixture(t, "v2.snap")
	data[4] = 0xFF // bump version; then re-seal the CRC so only the
	data[5] = 0x7F // version check can reject it
	body := data[: len(data)-4 : len(data)-4]
	resealed := binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	_, _, err := decodeSnapshot(resealed)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted: %v", err)
	}
}

// FuzzDecodeSnapshot asserts decode never panics on arbitrary bytes,
// and that any relation it does accept is internally consistent enough
// to be written out and parsed back to the same shape.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(readFixture(f, "v1.snap"))
	f.Add(readFixture(f, "v2.snap"))
	f.Add([]byte("SMSN"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, rel, err := decodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("rejection is not ErrCorruptSnapshot: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := rel.WriteCSV(&buf); err != nil {
			t.Fatalf("accepted snapshot cannot be written: %v", err)
		}
	})
}

// TestMigrateSnapshots drives the one-way boot migration: a good
// snapshot reaches the writer exactly once and is removed only after the
// writer succeeded; torn, foreign and misnamed files are quarantined;
// temp files are swept; and the emptied directory goes away.
func TestMigrateSnapshots(t *testing.T) {
	dir := t.TempDir()
	dsDir := filepath.Join(dir, "datasets")
	if err := os.MkdirAll(dsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	good := readFixture(t, "v2.snap")
	hash := fixtureHash()
	for name, data := range map[string][]byte{
		hash + snapshotExt:                    good,
		strings.Repeat("1", 64) + snapshotExt: good[:len(good)/2], // torn
		strings.Repeat("2", 64) + snapshotExt: good,               // valid bytes, wrong name
		"junk.bin":                            []byte("not a snapshot"),
		tempPrefix + "x.snap-123":             good[:10],
	} {
		if err := os.WriteFile(filepath.Join(dsDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := mustOpen(t, dir, Options{})

	// A failing writer leaves the snapshot in place and reports it.
	boom := errors.New("disk full")
	if err := s.MigrateSnapshots(func(DatasetMeta, *relation.Relation) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("MigrateSnapshots with failing writer = %v, want %v", err, boom)
	}
	if _, err := os.Stat(filepath.Join(dsDir, hash+snapshotExt)); err != nil {
		t.Fatalf("snapshot gone although it was never migrated: %v", err)
	}
	if got := s.Stats().Quarantined; got != 3 {
		t.Fatalf("Quarantined = %d, want 3", got)
	}

	var calls []DatasetMeta
	if err := s.MigrateSnapshots(func(meta DatasetMeta, rel *relation.Relation) error {
		if _, err := os.Stat(filepath.Join(dsDir, meta.Hash+snapshotExt)); err != nil {
			t.Errorf("snapshot removed before the writer returned: %v", err)
		}
		if rel.N() != 5 || rel.M() != 3 {
			t.Errorf("migrated relation is %d×%d, want 5×3", rel.N(), rel.M())
		}
		calls = append(calls, meta)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || calls[0].Hash != hash || calls[0].ID != hash[:12] {
		t.Fatalf("writer calls = %+v, want the fixture once", calls)
	}
	if _, err := os.Stat(dsDir); !os.IsNotExist(err) {
		t.Fatalf("datasets directory still present after migration (err=%v)", err)
	}
	if err := s.MigrateSnapshots(func(DatasetMeta, *relation.Relation) error {
		t.Error("writer called with nothing left to migrate")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
