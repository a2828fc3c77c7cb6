package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

var magic = [4]byte{'S', 'M', 'C', 'L'}

// version is bumped on any incompatible format change; old versions are
// rejected (the daemon re-registers from source) rather than guessed at.
// Version 2 added the stable dataset id, the append epoch, and the
// dictionary strings to the tail, which is what lets appends against
// paged datasets intern new rows without the original source.
const version = 2

const (
	headerSize = 32
	footerSize = 24
	// pageCRCSize trails every page's data bytes.
	pageCRCSize = 4
	// maxPageRows bounds pageRows so size arithmetic cannot overflow
	// even with a hostile header.
	maxPageRows = 1 << 24
)

// header is the fixed-size file prelude; everything else is derived
// from it arithmetically.
type header struct {
	pageRows int
	m        int
	n        int64
	d        int
}

func encodeHeader(h header) []byte {
	buf := make([]byte, 0, headerSize)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.pageRows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.m))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.n))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.d))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func decodeHeader(b []byte) (header, error) {
	var h header
	if len(b) < headerSize {
		return h, fmt.Errorf("%w: %d header bytes", ErrCorrupt, len(b))
	}
	if [4]byte(b[:4]) != magic {
		return h, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:4])
	}
	if got, want := binary.LittleEndian.Uint32(b[28:32]), crc32.ChecksumIEEE(b[:28]); got != want {
		return h, fmt.Errorf("%w: header CRC32 %08x, computed %08x", ErrCorrupt, got, want)
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != version {
		return h, fmt.Errorf("%w: version %d, this build reads %d", ErrCorrupt, v, version)
	}
	h.pageRows = int(binary.LittleEndian.Uint32(b[8:12]))
	h.m = int(binary.LittleEndian.Uint32(b[12:16]))
	h.n = int64(binary.LittleEndian.Uint64(b[16:24]))
	h.d = int(binary.LittleEndian.Uint32(b[24:28]))
	switch {
	case h.pageRows < 1 || h.pageRows > maxPageRows:
		return h, fmt.Errorf("%w: pageRows %d out of range", ErrCorrupt, h.pageRows)
	case h.m < 1 || h.m > 1<<20:
		return h, fmt.Errorf("%w: %d attributes out of range", ErrCorrupt, h.m)
	case h.n < 0 || h.n > 1<<48:
		return h, fmt.Errorf("%w: %d tuples out of range", ErrCorrupt, h.n)
	case h.d < 0 || int64(h.d) > h.n*int64(h.m):
		return h, fmt.Errorf("%w: %d values for %d cells", ErrCorrupt, h.d, h.n*int64(h.m))
	}
	return h, nil
}

// numStripes returns the page count per attribute.
func (h header) numStripes() int {
	return int((h.n + int64(h.pageRows) - 1) / int64(h.pageRows))
}

// stripeLen returns the number of tuples in stripe s.
func (h header) stripeLen(s int) int {
	if rem := h.n - int64(s)*int64(h.pageRows); rem < int64(h.pageRows) {
		return int(rem)
	}
	return h.pageRows
}

// pageSize is the on-disk size of one page holding rows tuples.
func pageSize(rows int) int64 { return int64(rows)*4 + pageCRCSize }

// pageOff returns the file offset of attribute a's page in stripe s.
func (h header) pageOff(s, a int) int64 {
	full := int64(h.m) * pageSize(h.pageRows)
	return headerSize + int64(s)*full + int64(a)*pageSize(h.stripeLen(s))
}

// dataEnd is the file offset one past the last page (= tail offset).
func (h header) dataEnd() int64 {
	ns := h.numStripes()
	if ns == 0 {
		return headerSize
	}
	full := int64(h.m) * pageSize(h.pageRows)
	return headerSize + int64(ns-1)*full + int64(h.m)*pageSize(h.stripeLen(ns-1))
}

func encodeFooter(tailOff, tailLen int64, tailCRC uint32) []byte {
	buf := make([]byte, 0, footerSize)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(tailOff))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(tailLen))
	buf = binary.LittleEndian.AppendUint32(buf, tailCRC)
	return append(buf, magic[:]...)
}

func decodeFooter(b []byte) (tailOff, tailLen int64, tailCRC uint32, err error) {
	if len(b) != footerSize {
		return 0, 0, 0, fmt.Errorf("%w: %d footer bytes", ErrCorrupt, len(b))
	}
	if [4]byte(b[20:24]) != magic {
		return 0, 0, 0, fmt.Errorf("%w: bad footer magic %q", ErrCorrupt, b[20:24])
	}
	off := binary.LittleEndian.Uint64(b[0:8])
	ln := binary.LittleEndian.Uint64(b[8:16])
	if off > 1<<62 || ln > 1<<62 {
		return 0, 0, 0, fmt.Errorf("%w: tail bounds out of range", ErrCorrupt)
	}
	return int64(off), int64(ln), binary.LittleEndian.Uint32(b[16:20]), nil
}

// tailReader parses the tail with explicit bounds checks so a corrupt
// length prefix yields ErrCorrupt instead of a panic or an allocation
// bomb.
type tailReader struct {
	buf []byte
	off int
}

func (r *tailReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint at tail offset %d", ErrCorrupt, r.off)
	}
	r.off += n
	return v, nil
}

// run1 reads one posting run — its start delta and its length — when
// both are one-byte uvarints, as most are; it reports false, having
// read nothing, when either is longer or truncated, and the caller
// falls back to run. Runs are most of the index, so this is the
// decode's hot path, and small enough to inline.
func (r *tailReader) run1() (delta, ln uint64, ok bool) {
	if off := r.off; off+1 < len(r.buf) {
		if d, l := r.buf[off], r.buf[off+1]; d|l < 0x80 {
			r.off = off + 2
			return uint64(d), uint64(l), true
		}
	}
	return 0, 0, false
}

// run reads one posting run of any encoding.
func (r *tailReader) run() (delta, ln uint64, err error) {
	if delta, err = r.uvarint(); err != nil {
		return 0, 0, err
	}
	ln, err = r.uvarint()
	return delta, ln, err
}

// count reads a uvarint counting elements of at least elemSize bytes
// each, rejecting values the remaining tail cannot possibly hold.
func (r *tailReader) count(elemSize int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.buf)-r.off)/uint64(elemSize) {
		return 0, fmt.Errorf("%w: count %d exceeds remaining tail", ErrCorrupt, v)
	}
	return int(v), nil
}

// bytes reads one length-prefixed string, aliasing the buffer.
func (r *tailReader) bytes() ([]byte, error) {
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	r.off += n
	return r.buf[r.off-n : r.off], nil
}

func (r *tailReader) string() (string, error) {
	b, err := r.bytes()
	return string(b), err
}
