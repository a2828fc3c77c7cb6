package fd

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"structmine/internal/relation"
)

// Delta FD discovery rests on the anti-monotonicity of FD satisfaction
// under row addition: appending tuples can only BREAK functional
// dependencies, never create ones that did not hold (a violating pair
// of rows stays in the relation — prefix rows are immutable and their
// ids stable). Two consequences carry the whole design:
//
//  1. If every previously-minimal FD still holds over the extended
//     relation, the holding set is unchanged (any previously-holding
//     X→A has a minimal Z⊆X among the previous minimal FDs; Z→A still
//     holding implies X→A by augmentation, and nothing new appeared),
//     hence the minimal set is unchanged — DiscoverDelta returns the
//     previous set verbatim, and downstream artifacts are byte-
//     identical to a from-scratch run by construction.
//
//  2. An FD X→A can only be newly violated by a pair involving an
//     appended row t that agrees with another row on all of X. So if
//     some attribute in X is "untouched" — no appended row lands in an
//     equivalence class of size ≥ 2 there — the FD cannot have broken
//     and needs no recheck.
//
// The per-attribute equivalence classes are maintained as a by-value
// CSR over int32 arenas (Offs/Elems below): extending them for an
// append is an O(n·m) copy plus O(Δ·m) insertion — no hashing, no
// re-partitioning — and the class sizes drive the touched-attribute
// filter. Any recheck failure, or an append too large a fraction of
// the data, falls back to full discovery (Discover), which is also
// what (re)builds the state.

// DeltaMaxFraction is the appended-rows fraction above which
// DiscoverDelta abandons incremental maintenance and re-mines from
// scratch: past it, the recheck pass plus state extension costs more
// than it saves.
const DeltaMaxFraction = 0.25

// MineState is the persistent FD-mining state for one dataset epoch:
// the minimal FD set over the first N rows plus the by-value
// equivalence classes that make the next append's recheck cheap.
type MineState struct {
	// N is the number of rows the state covers; Attrs the schema width.
	N     int
	Attrs int
	// FDs is the minimal FD set over those rows, sorted (SortFDs).
	FDs []FD
	// Offs/Elems are the by-value CSR: for value id v,
	// Elems[Offs[v]:Offs[v+1]] lists the rows holding v (ascending).
	// len(Offs) = d+1; len(Elems) = N·Attrs.
	Offs  []int32
	Elems []int32
}

// classSize returns the number of rows holding value v.
func (s *MineState) classSize(v int32) int {
	return int(s.Offs[v+1] - s.Offs[v])
}

// NewMineState builds the state from scratch over r with the given
// minimal FD set (sorted in place).
func NewMineState(r *relation.Relation, fds []FD) *MineState {
	SortFDs(fds)
	s := &MineState{N: r.N(), Attrs: r.M(), FDs: fds}
	s.Offs, s.Elems = buildCSR(r, 0, nil, nil)
	return s
}

// buildCSR extends a by-value CSR covering rows [0, from) — nil/nil for
// an empty one — with rows [from, r.N()).
func buildCSR(r *relation.Relation, from int, oldOffs, oldElems []int32) (offs, elems []int32) {
	n, m, d := r.N(), r.M(), r.D()
	cnt := make([]int32, d)
	for v := 0; v+1 < len(oldOffs); v++ {
		cnt[v] = oldOffs[v+1] - oldOffs[v]
	}
	for t := from; t < n; t++ {
		row := r.Row(t)
		for _, v := range row {
			cnt[v]++
		}
	}
	offs = make([]int32, d+1)
	for v := 0; v < d; v++ {
		offs[v+1] = offs[v] + cnt[v]
	}
	elems = make([]int32, n*m)
	cur := make([]int32, d)
	copy(cur, offs[:d])
	for v := 0; v+1 < len(oldOffs); v++ {
		copy(elems[cur[v]:], oldElems[oldOffs[v]:oldOffs[v+1]])
		cur[v] += oldOffs[v+1] - oldOffs[v]
	}
	for t := from; t < n; t++ {
		for _, v := range r.Row(t) {
			elems[cur[v]] = int32(t)
			cur[v]++
		}
	}
	return offs, elems
}

// DiscoverDelta mines the minimal FD set of r, reusing prev — the state
// of a prefix of r — when it can. It returns the FDs, the state at
// r's row count (always usable for the next append), and whether the
// delta path was taken; delta=false means a full re-mine ran (no prev,
// schema drift, oversized append, or a broken FD). The returned FD set
// is identical to Discover's in every case, sorted.
func DiscoverDelta(ctx context.Context, r *relation.Relation, prev *MineState) (fds []FD, st *MineState, delta bool, err error) {
	full := func() ([]FD, *MineState, bool, error) {
		mined, err := DiscoverCtx(ctx, r)
		if err != nil {
			return nil, nil, false, err
		}
		st := NewMineState(r, mined)
		return st.FDs, st, false, nil
	}
	n := r.N()
	if prev == nil || prev.Attrs != r.M() || prev.N > n ||
		len(prev.Offs) == 0 || len(prev.Offs)-1 > r.D() ||
		len(prev.Elems) != prev.N*prev.Attrs {
		return full()
	}
	appended := n - prev.N
	if float64(appended) > DeltaMaxFraction*float64(n) {
		return full()
	}
	offs, elems := buildCSR(r, prev.N, prev.Offs, prev.Elems)
	next := &MineState{N: n, Attrs: r.M(), FDs: prev.FDs, Offs: offs, Elems: elems}
	if appended == 0 {
		return next.FDs, next, true, nil
	}

	// Touched attributes: some appended row landed in a class of size
	// ≥ 2 there, so new agreeing pairs on that attribute exist.
	touched := AttrSet(0)
	for t := prev.N; t < n; t++ {
		for a, v := range r.Row(t) {
			if next.classSize(v) >= 2 {
				touched = touched.Add(a)
			}
		}
	}
	// Recheck exactly the FDs that could have broken, each against only
	// the appended rows' equivalence classes (falling back to a full
	// Holds pass when those classes are large). One failure means the
	// minimal set changed in ways only a full run can recover.
	for _, f := range prev.FDs {
		if !f.LHS.SubsetOf(touched) {
			continue
		}
		if f.LHS == 0 {
			if !constantAfter(r, f, prev.N) {
				return full()
			}
			continue
		}
		broken, ok := next.brokenByAppend(r, f, prev.N)
		if !ok {
			if !Holds(r, f) {
				return full()
			}
			continue
		}
		if broken {
			return full()
		}
	}
	return next.FDs, next, true, nil
}

// constantAfter rechecks an empty-LHS dependency (∅→A: attribute A is
// constant): the appended rows must all carry row 0's values on A.
func constantAfter(r *relation.Relation, f FD, from int) bool {
	if r.N() == 0 {
		return true
	}
	rhs := f.RHS.Attrs()
	ref := r.Row(0)
	for t := from; t < r.N(); t++ {
		row := r.Row(t)
		for _, a := range rhs {
			if row[a] != ref[a] {
				return false
			}
		}
	}
	return true
}

// brokenByAppend reports whether f (non-empty LHS) is newly violated by
// an appended row. A violating pair must involve an appended row t
// agreeing with some row u on all of LHS, so u lies in t's equivalence
// class on EVERY LHS attribute — it suffices to scan the smallest one.
// The scan is bounded: once the class sizes sum past one full-relation
// pass, ok=false tells the caller a plain Holds scan is cheaper.
func (s *MineState) brokenByAppend(r *relation.Relation, f FD, from int) (broken, ok bool) {
	lhs := f.LHS.Attrs()
	rhs := f.RHS.Attrs()
	budget := r.N()
	for t := from; t < r.N(); t++ {
		row := r.Row(t)
		best := lhs[0]
		for _, a := range lhs[1:] {
			if s.classSize(row[a]) < s.classSize(row[best]) {
				best = a
			}
		}
		cls := s.Elems[s.Offs[row[best]]:s.Offs[row[best]+1]]
		budget -= len(cls)
		if budget < 0 {
			return false, false
		}
	scan:
		for _, u := range cls {
			if int(u) == t {
				continue
			}
			urow := r.Row(int(u))
			for _, a := range lhs {
				if urow[a] != row[a] {
					continue scan
				}
			}
			for _, a := range rhs {
				if urow[a] != row[a] {
					return true, true
				}
			}
		}
	}
	return false, true
}

// MineState codec: magic "SMFD" | uint16 version | uvarint N, Attrs,
// |FDs| | per FD two uint64s | uvarint d | per value uvarint class size
// | Elems as ascending uvarint deltas per class | uint32 CRC32-IEEE.

var mineStateMagic = [4]byte{'S', 'M', 'F', 'D'}

const mineStateVersion = 1

// ErrCorruptState reports state bytes that failed checksum or
// structural validation; callers re-mine from scratch.
var ErrCorruptState = errors.New("fd: corrupt mine state")

// EncodeState serializes the state.
func EncodeState(s *MineState) []byte {
	buf := make([]byte, 0, 32+16*len(s.FDs)+2*len(s.Elems))
	buf = append(buf, mineStateMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, mineStateVersion)
	buf = binary.AppendUvarint(buf, uint64(s.N))
	buf = binary.AppendUvarint(buf, uint64(s.Attrs))
	buf = binary.AppendUvarint(buf, uint64(len(s.FDs)))
	for _, f := range s.FDs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.LHS))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.RHS))
	}
	d := len(s.Offs) - 1
	buf = binary.AppendUvarint(buf, uint64(d))
	for v := 0; v < d; v++ {
		buf = binary.AppendUvarint(buf, uint64(s.Offs[v+1]-s.Offs[v]))
	}
	for v := 0; v < d; v++ {
		prev := int64(-1)
		for _, t := range s.Elems[s.Offs[v]:s.Offs[v+1]] {
			buf = binary.AppendUvarint(buf, uint64(int64(t)-prev))
			prev = int64(t)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// DecodeState parses EncodeState bytes, validating bounds so corrupt
// input yields ErrCorruptState rather than a panic.
func DecodeState(data []byte) (*MineState, error) {
	if len(data) < 4+2+4 || [4]byte(data[:4]) != mineStateMagic {
		return nil, fmt.Errorf("%w: bad envelope", ErrCorruptState)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if binary.LittleEndian.Uint32(tail) != crc32.ChecksumIEEE(body) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorruptState)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != mineStateVersion {
		return nil, fmt.Errorf("%w: version %d", ErrCorruptState, v)
	}
	r := stateReader{buf: body, off: 6}
	n, err1 := r.uvarint()
	m, err2 := r.uvarint()
	nf, err3 := r.uvarint()
	if err := firstErr(err1, err2, err3); err != nil {
		return nil, err
	}
	if n > 1<<31 || m > 64 || nf > uint64(len(body))/16 {
		return nil, fmt.Errorf("%w: header out of range", ErrCorruptState)
	}
	s := &MineState{N: int(n), Attrs: int(m), FDs: make([]FD, nf)}
	for i := range s.FDs {
		if r.off+16 > len(body) {
			return nil, fmt.Errorf("%w: truncated FDs", ErrCorruptState)
		}
		s.FDs[i].LHS = AttrSet(binary.LittleEndian.Uint64(body[r.off:]))
		s.FDs[i].RHS = AttrSet(binary.LittleEndian.Uint64(body[r.off+8:]))
		r.off += 16
	}
	d, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if d > uint64(len(body)-r.off) {
		return nil, fmt.Errorf("%w: %d values exceed payload", ErrCorruptState, d)
	}
	s.Offs = make([]int32, d+1)
	for v := 0; v < int(d); v++ {
		c, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		next := int64(s.Offs[v]) + int64(c)
		if next > int64(s.N)*int64(s.Attrs) {
			return nil, fmt.Errorf("%w: classes cover more cells than the relation", ErrCorruptState)
		}
		s.Offs[v+1] = int32(next)
	}
	total := int(s.Offs[d])
	if total != s.N*s.Attrs {
		return nil, fmt.Errorf("%w: classes cover %d of %d cells", ErrCorruptState, total, s.N*s.Attrs)
	}
	if total > len(body)-r.off { // every row id takes at least one byte
		return nil, fmt.Errorf("%w: %d row ids exceed payload", ErrCorruptState, total)
	}
	s.Elems = make([]int32, total)
	for v := 0; v < int(d); v++ {
		prev := int64(-1)
		for i := s.Offs[v]; i < s.Offs[v+1]; i++ {
			delta, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			t := prev + int64(delta)
			if delta == 0 || t >= int64(s.N) {
				return nil, fmt.Errorf("%w: row id %d out of range", ErrCorruptState, t)
			}
			s.Elems[i] = int32(t)
			prev = t
		}
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptState, len(body)-r.off)
	}
	return s, nil
}

type stateReader struct {
	buf []byte
	off int
}

func (r *stateReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint at %d", ErrCorruptState, r.off)
	}
	r.off += n
	if v > math.MaxInt64 {
		return 0, fmt.Errorf("%w: varint out of range", ErrCorruptState)
	}
	return v, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
