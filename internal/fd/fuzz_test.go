package fd

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
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
// Seeds under testdata/fuzz/: a valid state, a truncated one, a bad CRC.
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
