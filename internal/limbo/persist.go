package limbo

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"structmine/internal/it"
)

// Tree persistence: EncodeTree serializes a Phase 1 DCF-tree — exact
// float bits, exact main/tail tier split, node hierarchy, config and
// counters — and DecodeTree rebuilds it so that decode(encode(T)) then
// Insert(o) evolves bit-identically to inserting o into T directly.
// That is the property delta re-mining rests on: a persisted tree
// absorbs only the appended tuples and ends in the same state a
// from-scratch build over the full data would reach.
//
// The memoized logarithms (vlog/tvlog/wlog) are not stored: validDCF
// pins them to be exactly it.XLog2 of the stored sums, so recomputing them
// at decode reproduces the same bits. The rank index is likewise
// rebuilt, flagged per DCF because it exists only on summaries that
// consolidated after qualifying.
//
// Envelope: magic "SMLT" | uint16 version | config | counters |
// preorder node tree | uint32 CRC32-IEEE (covering everything before).

var treeMagic = [4]byte{'S', 'M', 'L', 'T'}

const treeVersion = 1

// ErrCorruptTree reports tree bytes that failed checksum or structural
// validation; callers fall back to a from-scratch build.
var ErrCorruptTree = errors.New("limbo: corrupt tree encoding")

// EncodeTree serializes the tree. The tree is only read.
func EncodeTree(t *Tree) []byte {
	buf := make([]byte, 0, 1<<12)
	buf = append(buf, treeMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, treeVersion)
	buf = binary.AppendUvarint(buf, uint64(t.cfg.B))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.cfg.Threshold))
	buf = binary.AppendUvarint(buf, uint64(t.cfg.MaxLeafEntries))
	buf = binary.AppendUvarint(buf, uint64(t.cfg.NumAttrs))
	buf = binary.AppendUvarint(buf, uint64(t.leafEntries))
	buf = binary.AppendUvarint(buf, uint64(t.inserted))
	buf = binary.AppendUvarint(buf, uint64(t.rebuilds))
	buf = binary.AppendUvarint(buf, uint64(t.nodes))
	buf = binary.AppendUvarint(buf, uint64(t.height))
	buf = encodeNode(buf, t.root)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func encodeNode(buf []byte, n *node) []byte {
	leaf := byte(0)
	if n.leaf {
		leaf = 1
	}
	buf = append(buf, leaf)
	buf = binary.AppendUvarint(buf, uint64(len(n.entries)))
	for _, e := range n.entries {
		buf = encodeDCF(buf, e.dcf)
		if !n.leaf {
			buf = encodeNode(buf, e.child)
		}
	}
	return buf
}

func encodeDCF(buf []byte, d *DCF) []byte {
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
	buf = encodeTier(buf, d.idx, d.val)
	buf = encodeTier(buf, d.tidx, d.tval)
	return buf
}

// encodeTier writes one sorted-sparse tier: count, strictly-ascending
// coordinates as deltas, then the sums as raw float bits.
func encodeTier(buf []byte, idx []int32, val []float64) []byte {
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

// treeReader parses the payload with explicit bounds checks so corrupt
// bytes yield ErrCorruptTree instead of a panic or allocation bomb.
type treeReader struct {
	buf []byte
	off int
}

func (r *treeReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint at offset %d", ErrCorruptTree, r.off)
	}
	r.off += n
	return v, nil
}

// count reads a uvarint counting elements of at least elemSize bytes
// each, rejecting values the remaining payload cannot hold.
func (r *treeReader) count(elemSize int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.buf)-r.off)/uint64(elemSize) {
		return 0, fmt.Errorf("%w: count %d exceeds remaining payload", ErrCorruptTree, v)
	}
	return int(v), nil
}

func (r *treeReader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, fmt.Errorf("%w: truncated at offset %d", ErrCorruptTree, r.off)
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *treeReader) float() (float64, error) {
	if r.off+8 > len(r.buf) {
		return 0, fmt.Errorf("%w: truncated float at offset %d", ErrCorruptTree, r.off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v, nil
}

// DecodeTree rebuilds a tree from EncodeTree bytes under the context's
// worker budget, exactly as NewTreeCtx would have wired it (arena,
// scratch, buffers), so further Inserts behave as if the original build
// had never paused. Corrupt bytes fail with ErrCorruptTree — including
// a final Validate pass over the decoded structure — never a panic.
func DecodeTree(ctx context.Context, data []byte) (*Tree, error) {
	if len(data) < 4+2+4 || [4]byte(data[:4]) != treeMagic {
		return nil, fmt.Errorf("%w: bad envelope", ErrCorruptTree)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if binary.LittleEndian.Uint32(tail) != crc32.ChecksumIEEE(body) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorruptTree)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != treeVersion {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", ErrCorruptTree, v, treeVersion)
	}
	r := &treeReader{buf: body, off: 6}

	var cfg Config
	b, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	cfg.B = int(b)
	if cfg.Threshold, err = r.float(); err != nil {
		return nil, err
	}
	mle, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	cfg.MaxLeafEntries = int(mle)
	na, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	cfg.NumAttrs = int(na)
	if cfg.B <= 1 || cfg.B > 1<<10 {
		return nil, fmt.Errorf("%w: branching factor %d", ErrCorruptTree, cfg.B)
	}

	var counters [5]int
	for i := range counters {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if v > 1<<40 {
			return nil, fmt.Errorf("%w: counter out of range", ErrCorruptTree)
		}
		counters[i] = int(v)
	}

	t := NewTreeCtx(ctx, cfg)
	t.leafEntries = counters[0]
	t.inserted = counters[1]
	t.rebuilds = counters[2]
	t.nodes = counters[3]
	t.height = counters[4]
	root, err := decodeNode(r, t, 0)
	if err != nil {
		return nil, err
	}
	t.root = root
	if r.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorruptTree, len(body)-r.off)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptTree, err)
	}
	return t, nil
}

const maxTreeDepth = 64

func decodeNode(r *treeReader, t *Tree, depth int) (*node, error) {
	if depth > maxTreeDepth {
		return nil, fmt.Errorf("%w: nesting deeper than %d", ErrCorruptTree, maxTreeDepth)
	}
	leafByte, err := r.byte()
	if err != nil {
		return nil, err
	}
	ne, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if ne > t.cfg.B {
		return nil, fmt.Errorf("%w: node with %d entries exceeds B=%d", ErrCorruptTree, ne, t.cfg.B)
	}
	n := t.newNode(leafByte == 1)
	for i := 0; i < ne; i++ {
		e := t.ar.entry()
		if e.dcf, err = decodeDCF(r, &t.ar); err != nil {
			return nil, err
		}
		if !n.leaf {
			if e.child, err = decodeNode(r, t, depth+1); err != nil {
				return nil, err
			}
		}
		n.entries = append(n.entries, e)
	}
	return n, nil
}

// decodeDCF reads one encodeDCF record into storage carved from ar (a
// nil arena allocates plainly on the heap).
func decodeDCF(r *treeReader, ar *arena) (*DCF, error) {
	d := ar.dcf()
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
		return nil, fmt.Errorf("%w: first id %d out of range", ErrCorruptTree, fid)
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
				return nil, fmt.Errorf("%w: ADCF count out of range", ErrCorruptTree)
			}
			d.Counts[i] = int64(c)
		}
	}
	hasRank, err := r.byte()
	if err != nil {
		return nil, err
	}
	if d.idx, d.val, d.vlog, err = decodeTier(r, ar); err != nil {
		return nil, err
	}
	if d.tidx, d.tval, d.tvlog, err = decodeTier(r, ar); err != nil {
		return nil, err
	}
	if hasRank == 1 {
		d.buildRank()
		if d.rank == nil {
			return nil, fmt.Errorf("%w: rank flagged on a DCF that cannot carry one", ErrCorruptTree)
		}
	}
	return d, nil
}

func decodeTier(r *treeReader, ar *arena) ([]int32, []float64, []float64, error) {
	n, err := r.count(9) // ≥ 1 delta byte + 8 value bytes per coordinate
	if err != nil {
		return nil, nil, nil, err
	}
	idx := ar.int32s(n)[:n]
	val := ar.float64s(n)[:n]
	vlog := ar.float64s(n)[:n]
	prev := int64(-1)
	for i := range idx {
		delta, err := r.uvarint()
		if err != nil {
			return nil, nil, nil, err
		}
		ix := prev + int64(delta)
		if delta == 0 || ix > math.MaxInt32 {
			return nil, nil, nil, fmt.Errorf("%w: coordinate delta %d at %d", ErrCorruptTree, delta, i)
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

// AppendDCF appends one summary to buf in the tree codec's DCF record:
// exact float bits, the exact main/tail tier split and the rank flag, so
// a decoded copy scores every δI bit-identically to d. It is how a
// summary leaves a run whose tree lives in pooled arena slabs.
func AppendDCF(buf []byte, d *DCF) []byte { return encodeDCF(buf, d) }

// DecodeDCF reads one AppendDCF record from the front of data into a
// plain heap DCF — nothing carved from an arena, so it may outlive any
// tree or grant — and returns the bytes that follow it. Bytes that are
// not a structurally valid DCF fail with ErrCorruptTree, never a panic,
// and allocate no more than the bytes left can describe.
func DecodeDCF(data []byte) (*DCF, []byte, error) {
	r := &treeReader{buf: data}
	d, err := decodeDCF(r, nil)
	if err != nil {
		return nil, nil, err
	}
	if err := validDCF(d); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorruptTree, err)
	}
	return d, data[r.off:], nil
}

// Scaled returns a copy of d with all mass multiplied by s: W, the
// tier sums, and the memoized logarithms recomputed from the scaled
// values. Delta re-mining builds its Phase 1 tree over unit-weight
// objects (so the tree is independent of the growing row count) and
// scales the extracted leaves by 1/n before the downstream phases.
func Scaled(d *DCF, s float64) *DCF {
	c := &DCF{W: d.W * s, N: d.N, FirstID: d.FirstID,
		idx:   append([]int32(nil), d.idx...),
		tidx:  append([]int32(nil), d.tidx...),
		val:   make([]float64, len(d.val)),
		vlog:  make([]float64, len(d.val)),
		tval:  make([]float64, len(d.tval)),
		tvlog: make([]float64, len(d.tval)),
	}
	c.wlog = it.XLog2(c.W)
	for i, v := range d.val {
		c.val[i] = v * s
		c.vlog[i] = it.XLog2(c.val[i])
	}
	for i, v := range d.tval {
		c.tval[i] = v * s
		c.tvlog[i] = it.XLog2(c.tval[i])
	}
	if d.Counts != nil {
		c.Counts = append([]int64(nil), d.Counts...)
	}
	return c
}
