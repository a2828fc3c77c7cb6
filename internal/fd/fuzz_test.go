package fd

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// resealCRC returns data with its last four bytes replaced by the
// CRC32-IEEE of what precedes them — the envelope both mining-state
// codecs use — so a mutated payload gets past the checksum and reaches
// the structural validation behind it.
func resealCRC(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	body := data[:len(data)-4]
	return binary.LittleEndian.AppendUint32(body[:len(body):len(body)], crc32.ChecksumIEEE(body))
}

// FuzzDecodeState: arbitrary bytes — as given, and resealed under a
// valid CRC — never panic DecodeState and fail only with
// ErrCorruptState; whatever decodes survives Encode → Decode unchanged.
// Seeds under testdata/fuzz/: see TestDecodeStateSeeds.
func FuzzDecodeState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealCRC(data)} {
			st, err := DecodeState(in)
			if err != nil {
				if !errors.Is(err, ErrCorruptState) {
					t.Fatalf("DecodeState failed untyped: %v", err)
				}
				continue
			}
			again, err := DecodeState(EncodeState(st))
			if err != nil {
				t.Fatalf("re-decoding an encoded state: %v", err)
			}
			if !reflect.DeepEqual(again, st) {
				t.Fatalf("Encode → Decode changed the state:\ngot  %+v\nwant %+v", again, st)
			}
		}
	})
}

// TestDecodeStateSeeds pins what each committed fuzz seed is: one valid
// version-2 state, and four blobs that must fail typed — a flipped CRC,
// a truncation, a header claiming 2^31-1 FDs over a 16-byte payload
// under a valid CRC (the decoder must not allocate for them), and a
// well-formed version-1 state, by-value row index included, as daemons
// before codec version 2 left on disk.
func TestDecodeStateSeeds(t *testing.T) {
	for name, valid := range map[string]bool{
		"valid": true, "bad-crc": false, "truncated": false, "oversized-fd-count": false, "version-1": false,
	} {
		raw, err := os.ReadFile("testdata/fuzz/FuzzDecodeState/" + name)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte("), ")")
		blob, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("seed %s: %v", name, err)
		}
		st, err := DecodeState([]byte(blob))
		switch {
		case valid && (err != nil || len(st.FDs) == 0):
			t.Errorf("seed %s: state %+v, err %v; want a state with FDs", name, st, err)
		case !valid && !errors.Is(err, ErrCorruptState):
			t.Errorf("seed %s: err %v, want ErrCorruptState", name, err)
		}
	}
}
