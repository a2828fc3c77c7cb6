package tuples

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"structmine/internal/limbo"
)

// Summary is what the consumers of a threshold-bounded Phase 1 pass over
// the tuples read of its leaves: double clustering the per-tuple leaf
// membership (Section 6.2), duplicate detection the leaves that absorbed
// more than one tuple (Section 6.1.1). It holds plain values only —
// nothing carved from a tree's arena — so it outlives the run that
// built it, and EncodeSummary / DecodeSummary carry it between runs with
// every float bit intact: a consumer cannot tell a decoded Summary from
// a freshly built one. A Summary is read-only once built.
type Summary struct {
	// N, M, PhiT and B echo what the pass was built for: the relation's
	// shape, the accuracy knob φT and the tree's branching factor.
	N, M int
	PhiT float64
	B    int
	// Threshold is τ = φT·I(V;T)/n, the loss a leaf may absorb.
	Threshold float64
	// LeafCount is the number of leaf summaries; LeafOf[t] is the leaf
	// that absorbed tuple t. Leaves are numbered as limbo.Phase1Ctx
	// returns them: left to right in the tree for τ > 0, by first member
	// at τ = 0, where every leaf is a group of identical tuples.
	LeafCount int
	LeafOf    []int32
	// Multi are the leaves summarizing several tuples (p(c) > 1/n), in
	// leaf order.
	Multi []*limbo.DCF
}

// Summarize runs the Phase 1 pass over the tuple objects (ID = tuple
// position, as Objects and ObjectsColumnsCtx number them) of an m-column
// relation at τ = φT·I(V;T)/n: limbo.Phase1Ctx, a DCF-tree for φT > 0
// and one hash pass over identical tuples at φT = 0. Membership is
// tracked during the pass (the leaf DCFs "define a clustering of the
// tuples seen so far"). It is the one place tuple clustering runs
// Phase 1 at a threshold.
func Summarize(ctx context.Context, objs []limbo.Obj, m int, phiT float64, b int) *Summary {
	tau := limbo.ThresholdFor(phiT, objs)
	leaves, leafOf := limbo.Phase1Ctx(ctx, objs, tau, b)
	s := &Summary{N: len(objs), M: m, PhiT: phiT, B: b, Threshold: tau, LeafCount: len(leaves), LeafOf: leafOf}
	for _, d := range leaves {
		if d.N >= 2 {
			s.Multi = append(s.Multi, d.Clone())
		}
	}
	return s
}

// For reports whether the summary was built for an n × m relation at
// (φT, b) — the check a consumer makes on a Summary it did not build.
func (s *Summary) For(n, m int, phiT float64, b int) bool {
	return s.N == n && s.M == m && s.PhiT == phiT && s.B == b
}

// Clusters is the double-clustering reading: the per-tuple cluster id
// and the number of tuple clusters.
func (s *Summary) Clusters() ([]int, int) {
	out := make([]int, len(s.LeafOf))
	for t, l := range s.LeafOf {
		out[t] = int(l)
	}
	return out, s.LeafCount
}

// Duplicates is the duplicate-detection reading: every tuple object is
// associated with its closest multi-tuple leaf (Phase 3), and joins that
// leaf's group only when the association loss is within the Phase 1
// threshold. objs are the objects the summary was built over.
func (s *Summary) Duplicates(ctx context.Context, objs []limbo.Obj) *DuplicateReport {
	rep := &DuplicateReport{Summaries: s.Multi, LeafCount: s.LeafCount, Threshold: s.Threshold}
	rep.Assign = limbo.AssignCtx(ctx, rep.Summaries, objs)
	cutoff := s.Threshold + 1e-12
	for t := range rep.Assign {
		if rep.Assign[t].Loss > cutoff {
			rep.Assign[t].Cluster = -1
		}
	}
	rep.Groups = make([][]int, len(rep.Summaries))
	for t, a := range rep.Assign {
		if a.Cluster >= 0 {
			rep.Groups[a.Cluster] = append(rep.Groups[a.Cluster], t)
		}
	}
	return rep
}

// Summary encoding: magic "SMTS" | uint16 version | n | m | φT bits | B |
// τ bits | leaf count | n leaf indices | multi-leaf count | that many
// limbo.AppendDCF records | uint32 CRC32-IEEE of everything before.
// Integers are uvarints, floats raw little-endian bits.

var summaryMagic = [4]byte{'S', 'M', 'T', 'S'}

// summaryVersion 2 numbers the leaves of a φT = 0 summary by first
// member; version 1 numbered them in tree order, so a version-1 blob is
// refused and rebuilt rather than mixed with the new numbering.
const summaryVersion = 2

// ErrCorruptSummary reports summary bytes that failed checksum or
// structural validation; callers rebuild.
var ErrCorruptSummary = errors.New("tuples: corrupt summary encoding")

// EncodeSummary serializes the summary; s is only read.
func EncodeSummary(s *Summary) []byte {
	buf := make([]byte, 0, 64+2*len(s.LeafOf))
	buf = append(buf, summaryMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, summaryVersion)
	buf = binary.AppendUvarint(buf, uint64(s.N))
	buf = binary.AppendUvarint(buf, uint64(s.M))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.PhiT))
	buf = binary.AppendUvarint(buf, uint64(s.B))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Threshold))
	buf = binary.AppendUvarint(buf, uint64(s.LeafCount))
	for _, l := range s.LeafOf {
		buf = binary.AppendUvarint(buf, uint64(l))
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Multi)))
	for _, d := range s.Multi {
		buf = limbo.AppendDCF(buf, d)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// summaryReader consumes the payload front to back; the first read that
// runs short or out of range sets bad and every later one returns zero,
// so the decoder checks once per section.
type summaryReader struct {
	rest []byte
	bad  bool
}

// uvarint reads one integer in [0, max], in its shortest encoding (an
// overlong one ends in a zero byte), so no two payloads decode alike.
func (r *summaryReader) uvarint(max int) int {
	v, w := binary.Uvarint(r.rest)
	if r.bad || w <= 0 || (w > 1 && r.rest[w-1] == 0) || max < 0 || v > uint64(max) {
		r.bad = true
		return 0
	}
	r.rest = r.rest[w:]
	return int(v)
}

func (r *summaryReader) float() float64 {
	if r.bad || len(r.rest) < 8 {
		r.bad = true
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.rest))
	r.rest = r.rest[8:]
	return v
}

// DecodeSummary rebuilds a Summary from EncodeSummary bytes. Anything
// else fails with ErrCorruptSummary — never a panic — and allocates no
// more than the bytes left can describe.
func DecodeSummary(data []byte) (*Summary, error) {
	corrupt := func(format string, args ...any) (*Summary, error) {
		return nil, fmt.Errorf("%w: %s", ErrCorruptSummary, fmt.Sprintf(format, args...))
	}
	if len(data) < 4+2+4 || [4]byte(data[:4]) != summaryMagic {
		return corrupt("bad envelope")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if binary.LittleEndian.Uint32(tail) != crc32.ChecksumIEEE(body) {
		return corrupt("CRC mismatch")
	}
	if v := binary.LittleEndian.Uint16(body[4:6]); v != summaryVersion {
		return corrupt("version %d, this build reads %d", v, summaryVersion)
	}
	r := &summaryReader{rest: body[6:]}
	s := &Summary{}
	s.N = r.uvarint(math.MaxInt32)
	s.M = r.uvarint(math.MaxInt32)
	s.PhiT = r.float()
	s.B = r.uvarint(math.MaxInt32)
	s.Threshold = r.float()
	s.LeafCount = r.uvarint(s.N)
	if r.bad || s.N > len(r.rest) { // every leaf index takes at least one byte
		return corrupt("header truncated, out of range, or naming more tuples than the payload holds")
	}
	s.LeafOf = make([]int32, s.N)
	for t := range s.LeafOf {
		s.LeafOf[t] = int32(r.uvarint(s.LeafCount - 1))
	}
	multi := r.uvarint(s.LeafCount)
	if r.bad || multi > len(r.rest) {
		return corrupt("leaf indices or multi-tuple leaf count")
	}
	for i := 0; i < multi; i++ {
		d, after, err := limbo.DecodeDCF(r.rest)
		if err != nil {
			return corrupt("leaf %d: %v", i, err)
		}
		if d.N < 2 || d.N > s.N {
			return corrupt("leaf %d summarizes %d of %d tuples", i, d.N, s.N)
		}
		s.Multi = append(s.Multi, d)
		r.rest = after
	}
	if len(r.rest) != 0 {
		return corrupt("%d trailing payload bytes", len(r.rest))
	}
	return s, nil
}
