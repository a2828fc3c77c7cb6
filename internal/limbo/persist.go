package limbo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"structmine/internal/it"
)

// The DCF record codec: AppendDCF serializes one summary — exact float
// bits, the exact main/tail tier split and the rank flag — and DecodeDCF
// rebuilds it so a decoded copy scores every δI bit-identically to the
// original. It is how a summary leaves the run whose tree built it (the
// tuple summary carries its multi-tuple leaves this way).
//
// The memoized logarithms (vlog/tvlog/wlog) are not stored: validDCF
// pins them to be exactly it.XLog2 of the stored sums, so recomputing them
// at decode reproduces the same bits. The rank index is likewise
// rebuilt, flagged per DCF because it exists only on summaries that
// consolidated after qualifying.
//
// Record: W bits | N | FirstID | ADCF counts | rank flag | main tier |
// tail tier. Integers are uvarints, floats raw little-endian bits.
// Decoding is strict — varints in their shortest form, a rank flag of 0
// or 1 — so every record that decodes encodes back to the same bytes.

// ErrCorruptDCF reports DCF record bytes that failed structural
// validation; callers rebuild what the record would have carried.
var ErrCorruptDCF = errors.New("limbo: corrupt DCF encoding")

// AppendDCF appends d to buf as one DCF record.
func AppendDCF(buf []byte, d *DCF) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.W))
	buf = binary.AppendUvarint(buf, uint64(d.N))
	buf = binary.AppendUvarint(buf, uint64(uint32(d.FirstID)))
	buf = binary.AppendUvarint(buf, uint64(len(d.Counts)))
	for _, c := range d.Counts {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	hasRank := byte(0)
	if d.rank != nil {
		hasRank = 1
	}
	buf = append(buf, hasRank)
	buf = appendTier(buf, d.idx, d.val)
	buf = appendTier(buf, d.tidx, d.tval)
	return buf
}

// appendTier writes one sorted-sparse tier: count, strictly-ascending
// coordinates as deltas, then the sums as raw float bits.
func appendTier(buf []byte, idx []int32, val []float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(idx)))
	prev := int64(-1)
	for _, ix := range idx {
		buf = binary.AppendUvarint(buf, uint64(int64(ix)-prev))
		prev = int64(ix)
	}
	for _, v := range val {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// dcfReader parses a record with explicit bounds checks so corrupt
// bytes yield ErrCorruptDCF instead of a panic or allocation bomb.
type dcfReader struct {
	buf []byte
	off int
}

// uvarint reads one integer in its shortest encoding (an overlong one
// ends in a zero byte), so no two records decode alike.
func (r *dcfReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 || (n > 1 && r.buf[r.off+n-1] == 0) {
		return 0, fmt.Errorf("%w: truncated or overlong varint at offset %d", ErrCorruptDCF, r.off)
	}
	r.off += n
	return v, nil
}

// count reads a uvarint counting elements of at least elemSize bytes
// each, rejecting values the remaining payload cannot hold.
func (r *dcfReader) count(elemSize int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.buf)-r.off)/uint64(elemSize) {
		return 0, fmt.Errorf("%w: count %d exceeds remaining payload", ErrCorruptDCF, v)
	}
	return int(v), nil
}

func (r *dcfReader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, fmt.Errorf("%w: truncated at offset %d", ErrCorruptDCF, r.off)
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *dcfReader) float() (float64, error) {
	if r.off+8 > len(r.buf) {
		return 0, fmt.Errorf("%w: truncated float at offset %d", ErrCorruptDCF, r.off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v, nil
}

// DecodeDCF reads one AppendDCF record from the front of data into a
// plain heap DCF — nothing carved from an arena, so it may outlive any
// tree or grant — and returns the bytes that follow it. Bytes that are
// not a structurally valid DCF fail with ErrCorruptDCF, never a panic,
// and allocate no more than the bytes left can describe.
func DecodeDCF(data []byte) (*DCF, []byte, error) {
	r := &dcfReader{buf: data}
	d, err := decodeDCF(r)
	if err != nil {
		return nil, nil, err
	}
	if err := validDCF(d); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorruptDCF, err)
	}
	return d, data[r.off:], nil
}

func decodeDCF(r *dcfReader) (*DCF, error) {
	d := new(DCF)
	var err error
	if d.W, err = r.float(); err != nil {
		return nil, err
	}
	d.wlog = it.XLog2(d.W)
	nObjs, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	d.N = int(nObjs)
	fid, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if fid > math.MaxUint32 {
		return nil, fmt.Errorf("%w: first id %d out of range", ErrCorruptDCF, fid)
	}
	d.FirstID = int32(uint32(fid))
	nc, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if nc > 0 {
		d.Counts = make([]int64, nc)
		for i := range d.Counts {
			c, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if c > math.MaxInt64 {
				return nil, fmt.Errorf("%w: ADCF count out of range", ErrCorruptDCF)
			}
			d.Counts[i] = int64(c)
		}
	}
	hasRank, err := r.byte()
	if err != nil {
		return nil, err
	}
	if hasRank > 1 {
		return nil, fmt.Errorf("%w: rank flag %d", ErrCorruptDCF, hasRank)
	}
	if d.idx, d.val, d.vlog, err = decodeTier(r); err != nil {
		return nil, err
	}
	if d.tidx, d.tval, d.tvlog, err = decodeTier(r); err != nil {
		return nil, err
	}
	if hasRank == 1 {
		d.buildRank()
		if d.rank == nil {
			return nil, fmt.Errorf("%w: rank flagged on a DCF that cannot carry one", ErrCorruptDCF)
		}
	}
	return d, nil
}

func decodeTier(r *dcfReader) ([]int32, []float64, []float64, error) {
	n, err := r.count(9) // ≥ 1 delta byte + 8 value bytes per coordinate
	if err != nil {
		return nil, nil, nil, err
	}
	idx := make([]int32, n)
	val := make([]float64, n)
	vlog := make([]float64, n)
	prev := int64(-1)
	for i := range idx {
		delta, err := r.uvarint()
		if err != nil {
			return nil, nil, nil, err
		}
		ix := prev + int64(delta)
		if delta == 0 || ix > math.MaxInt32 {
			return nil, nil, nil, fmt.Errorf("%w: coordinate delta %d at %d", ErrCorruptDCF, delta, i)
		}
		idx[i] = int32(ix)
		prev = ix
	}
	for i := range val {
		if val[i], err = r.float(); err != nil {
			return nil, nil, nil, err
		}
		vlog[i] = it.XLog2(val[i])
	}
	return idx, val, vlog, nil
}
