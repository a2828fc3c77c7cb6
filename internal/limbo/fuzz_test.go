package limbo

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
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

// FuzzDecodeTree: arbitrary bytes — as given, and resealed under a valid
// CRC — never panic DecodeTree and fail only with ErrCorruptTree;
// whatever decodes survives Encode → Decode → Encode byte for byte.
// Seeds under testdata/fuzz/: a valid tree, a truncated one, a bad CRC.
func FuzzDecodeTree(f *testing.F) {
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealCRC(data)} {
			tree, err := DecodeTree(ctx, in)
			if err != nil {
				if !errors.Is(err, ErrCorruptTree) {
					t.Fatalf("DecodeTree failed untyped: %v", err)
				}
				continue
			}
			enc := EncodeTree(tree)
			again, err := DecodeTree(ctx, enc)
			if err != nil {
				t.Fatalf("re-decoding an encoded tree: %v", err)
			}
			if re := EncodeTree(again); !bytes.Equal(re, enc) {
				t.Fatalf("Encode → Decode → Encode changed the bytes (%d → %d)", len(enc), len(re))
			}
		}
	})
}
