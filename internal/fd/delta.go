package fd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"structmine/internal/obs"
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
//     hence the minimal set is unchanged — DiscoverDeltaColumns returns
//     the previous set verbatim, and downstream artifacts are byte-
//     identical to a from-scratch run by construction.
//
//  2. An FD is a constraint over tuple pairs, and every pair of prefix
//     rows already satisfies it, so X→A can only be newly violated by a
//     pair with an appended member: two appended rows, or an appended
//     row and a prefix row that carries, on every attribute of X, a
//     value some appended row carries there.
//
// So nothing is kept between epochs but the minimal set, and the recheck
// is the appended rows plus one filtered pass over the prefix, both
// through relation.Columns: the appended rows' LHS keys are hashed per
// dependency and their value ids marked in one bit set (ids are
// attribute-qualified: one set serves every attribute); the pass hashes
// a prefix row for a dependency only when all its LHS values are marked,
// O(N·|attrs| + matches). A violation or an oversized append re-mines.

// DeltaMaxFraction is the appended-rows fraction above which
// DiscoverDeltaColumns re-mines from scratch: past it the recheck saves
// too little to be worth a second path to the answer.
const DeltaMaxFraction = 0.25

// MineState is the persistent FD-mining state for one dataset epoch:
// the minimal FD set over the first N rows of an Attrs-wide relation,
// sorted (SortFDs).
type MineState struct {
	N     int
	Attrs int
	FDs   []FD
}

// DiscoverDelta is DiscoverDeltaColumns over a resident relation.
func DiscoverDelta(ctx context.Context, r *relation.Relation, prev *MineState) ([]FD, *MineState, bool, error) {
	return DiscoverDeltaColumns(ctx, NewSets(ctx, relation.AsColumns(r)), prev)
}

// DiscoverDeltaColumns mines the minimal FD set of c, reusing prev — the
// state of a prefix of c — when it can. It returns the FDs, sorted and
// identical to DiscoverColumns' in every case, the state at c's row
// count, and whether the delta path was taken; delta=false means a full
// re-mine ran: no prev, or a fallback counted on obs.DeltaFallbacks
// (state of another shape, oversized append, a broken FD).
func DiscoverDeltaColumns(ctx context.Context, s *Sets, prev *MineState) (fds []FD, st *MineState, delta bool, err error) {
	c := s.Columns()
	n, m := c.N(), c.M()
	reason := ""
	switch {
	case prev == nil: // the caller's fallback, and the caller's to count
	case !prev.covers(n, m):
		reason = obs.FallbackShape
	case float64(n-prev.N) > DeltaMaxFraction*float64(n):
		reason = obs.FallbackOversized
	default:
		broken, err := appendBreaks(ctx, c, prev)
		if err != nil {
			return nil, nil, false, err
		}
		if !broken {
			return prev.FDs, &MineState{N: n, Attrs: m, FDs: prev.FDs}, true, nil
		}
		reason = obs.FallbackFDBroken
	}
	if reason != "" {
		obs.DeltaFallbacks.With(reason).Inc()
	}
	fds, err = TANEColumnsCtx(ctx, s)
	if err != nil {
		return nil, nil, false, err
	}
	SortFDs(fds)
	return fds, &MineState{N: n, Attrs: m, FDs: fds}, false, nil
}

// covers reports whether s can be the state of a prefix of an n × m
// relation.
func (s *MineState) covers(n, m int) bool {
	if s.Attrs != m || s.N < 0 || s.N > n {
		return false
	}
	for _, f := range s.FDs {
		if !f.Attrs().SubsetOf(FullSet(m)) {
			return false
		}
	}
	return true
}

// lhsCheck is one previously-minimal dependency X→A as the recheck sees
// it: its attributes as columns of the stripes read, and the value of A
// that each LHS key among the appended rows demands (for X = ∅ the one
// key is empty).
type lhsCheck struct {
	lhs  AttrSet
	cols []int // stripe columns of the LHS attributes
	rhs  int   // stripe column of A
	want keyTable
}

// keyTable maps an LHS key — the value ids of one row on X — to the A
// value the first appended row with that key carries. It is open
// addressed over 64-bit hashes of the ids; a slot whose hash matches is
// confirmed against the key stored with its entry, so a collision costs
// a probe, never a wrong answer.
type keyTable struct {
	slots  []int32  // entry + 1, 0 = empty; len a power of two
	hashes []uint64 // per slot, the hash of its entry's key
	keys   []int32  // entry e's key: keys[e·w : (e+1)·w]
	vals   []int32  // entry e's A value
}

// hashKey mixes a key's value ids: one multiply per id, and a final
// fold of the high bits into the low ones the table's mask keeps.
func hashKey(key []int32) uint64 {
	h := uint64(len(key))
	for _, v := range key {
		h = (h ^ uint64(uint32(v))) * 0x9e3779b97f4a7c15
	}
	return h ^ h>>32
}

// find returns the slot holding key (hash h), or the empty slot where
// it would go, and whether it is there.
func (kt *keyTable) find(key []int32, h uint64) (int, bool) {
	mask := uint64(len(kt.slots) - 1)
	w := len(key)
	for i := h & mask; ; i = (i + 1) & mask {
		e := kt.slots[i] - 1
		if e < 0 {
			return int(i), false
		}
		if kt.hashes[i] == h && slices.Equal(kt.keys[int(e)*w:int(e+1)*w], key) {
			return int(i), true
		}
	}
}

// get returns the A value stored for key (hash h), if any.
func (kt *keyTable) get(key []int32, h uint64) (int32, bool) {
	if len(kt.slots) == 0 {
		return 0, false
	}
	i, ok := kt.find(key, h)
	if !ok {
		return 0, false
	}
	return kt.vals[kt.slots[i]-1], true
}

// add stores v for key (hash h), which must not be in the table,
// keeping the load at most one half.
func (kt *keyTable) add(key []int32, h uint64, v int32) {
	if 2*(len(kt.vals)+1) > len(kt.slots) {
		slots, hashes := kt.slots, kt.hashes
		size := max(16, 2*len(slots))
		kt.slots, kt.hashes = make([]int32, size), make([]uint64, size)
		mask := uint64(size - 1)
		for j, e := range slots {
			if e == 0 {
				continue
			}
			i := hashes[j] & mask
			for kt.slots[i] != 0 {
				i = (i + 1) & mask
			}
			kt.slots[i], kt.hashes[i] = e, hashes[j]
		}
	}
	i, _ := kt.find(key, h)
	kt.keys = append(kt.keys, key...)
	kt.vals = append(kt.vals, v)
	kt.slots[i], kt.hashes[i] = int32(len(kt.vals)), h
}

// deltaCheck is the recheck of one append. absorb fills it from the
// appended rows; after that it is read-only, so violated may run on
// many stripes at once.
type deltaCheck struct {
	attrs  []int      // the attributes any dependency mentions: the stripe columns
	marked []uint64   // bit v set: some appended row carries value id v
	consts []lhsCheck // the ∅→A dependencies: held to row 0 alone
	keyed  []lhsCheck // the others: held to every row whose LHS values are all marked
}

// rowScratch is what one worker needs to run violated.
type rowScratch struct {
	have []AttrSet // per row of a stripe, the attributes whose value is marked
	key  []int32
}

func newRowScratch(pageRows int) *rowScratch {
	return &rowScratch{have: make([]AttrSet, pageRows)}
}

func newDeltaCheck(c relation.Columns, fds []FD) *deltaCheck {
	var used AttrSet
	for _, f := range fds {
		used = used.Union(f.Attrs())
	}
	d := &deltaCheck{attrs: used.Attrs(), marked: make([]uint64, (c.D()+63)/64)}
	col := make([]int, c.M())
	for j, a := range d.attrs {
		col[a] = j
	}
	for _, f := range fds {
		for _, a := range f.RHS.Attrs() {
			ck := lhsCheck{lhs: f.LHS, rhs: col[a]}
			for _, x := range f.LHS.Attrs() {
				ck.cols = append(ck.cols, col[x])
			}
			if f.LHS.Empty() {
				d.consts = append(d.consts, ck)
			} else {
				d.keyed = append(d.keyed, ck)
			}
		}
	}
	return d
}

// broken reports whether row i of a stripe disagrees on A with the
// appended rows that share its LHS key; with learn set it is an appended
// row itself, and its own value is what later rows are held to.
func (ck *lhsCheck) broken(cols [][]int32, i int, sc *rowScratch, learn bool) bool {
	key := sc.key[:0]
	for _, j := range ck.cols {
		key = append(key, cols[j][i])
	}
	sc.key = key
	v := cols[ck.rhs][i]
	h := hashKey(key)
	w, ok := ck.want.get(key, h)
	if !ok && learn {
		ck.want.add(key, h, v)
	}
	return ok && w != v
}

// absorb takes rows [lo, hi) of a stripe as appended rows. It reports
// true when two appended rows already violate a dependency.
func (d *deltaCheck) absorb(cols [][]int32, lo, hi int, sc *rowScratch) bool {
	for _, col := range cols {
		for _, v := range col[lo:hi] {
			d.marked[v>>6] |= 1 << (v & 63)
		}
	}
	for _, cks := range [][]lhsCheck{d.consts, d.keyed} {
		for k := range cks {
			for i := lo; i < hi; i++ {
				if cks[k].broken(cols, i, sc, true) {
					return true
				}
			}
		}
	}
	return false
}

// violated reports whether one of the first rows prefix rows of a stripe
// disagrees with an appended row it shares a dependency's LHS with.
// first marks the stripe that starts at row 0, the row the constant
// attributes are held to.
func (d *deltaCheck) violated(cols [][]int32, rows int, first bool, sc *rowScratch) bool {
	if first && rows > 0 {
		for k := range d.consts {
			if d.consts[k].broken(cols, 0, sc, false) {
				return true
			}
		}
	}
	have := sc.have[:rows]
	clear(have)
	for j, col := range cols {
		bit := AttrSet(1) << uint(d.attrs[j])
		for i, v := range col[:rows] {
			if d.marked[v>>6]&(1<<(v&63)) != 0 {
				have[i] |= bit
			}
		}
	}
	for i, h := range have {
		if h == 0 {
			continue
		}
		for k := range d.keyed {
			if ck := &d.keyed[k]; ck.lhs.SubsetOf(h) && ck.broken(cols, i, sc, false) {
				return true
			}
		}
	}
	return false
}

// prefixPages is a Columns cut to its first pages stripes (all full).
type prefixPages struct {
	relation.Columns
	pages int
}

func (p prefixPages) NumPages() int { return p.pages }
func (p prefixPages) N() int        { return p.pages * p.PageRows() }

var errBroken = errors.New("fd: dependency broken by an append")

// appendBreaks reports whether rows [prev.N, c.N()) break one of prev's
// dependencies. It reads the stripes that hold appended rows last to
// first — so the one the append starts in is in hand, every appended row
// absorbed, when its prefix rows are due — then every stripe below, each
// once, under the context's worker budget.
func appendBreaks(ctx context.Context, c relation.Columns, prev *MineState) (bool, error) {
	if prev.N == c.N() { // e.g. rank-fds resuming the state mine-fds just left
		return false, nil
	}
	d := newDeltaCheck(c, prev.FDs)
	if len(d.attrs) == 0 {
		return false, nil
	}
	pageRows := c.PageRows()
	start := prev.N / pageRows
	sc := newRowScratch(pageRows)
	var buf [][]int32
	for p := c.NumPages() - 1; p >= start; p-- {
		cols, err := c.ReadStripe(p, d.attrs, buf)
		if err != nil {
			return false, err
		}
		buf = cols
		lo := max(prev.N-p*pageRows, 0)
		if d.absorb(cols, lo, len(cols[0]), sc) || p == start && d.violated(cols, lo, p == 0, sc) {
			return true, nil
		}
	}
	scan := relation.PlanScan(ctx, prefixPages{c, start}, d.attrs)
	scs := make([]*rowScratch, scan.Workers())
	err := scan.Run(func(w, p int, cols [][]int32) error {
		if scs[w] == nil {
			scs[w] = newRowScratch(pageRows)
		}
		if d.violated(cols, len(cols[0]), p == 0, scs[w]) {
			return errBroken
		}
		return nil
	})
	if errors.Is(err, errBroken) {
		return true, nil
	}
	return false, err
}

// ErrCorruptState reports state bytes that did not decode or failed
// validation; callers re-mine from scratch.
var ErrCorruptState = errors.New("fd: corrupt mine state")

// EncodeState serializes the state as JSON.
func EncodeState(s *MineState) []byte {
	data, _ := json.Marshal(s) // ints and uint64s: always encodes
	return data
}

// DecodeState parses EncodeState bytes and validates them, so a state
// that is not JSON of a MineState, is wider than MaxAttrs, or names an
// attribute past its width yields ErrCorruptState rather than a state
// no relation can have.
func DecodeState(data []byte) (*MineState, error) {
	var s *MineState
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptState, err)
	}
	if s == nil || s.N < 0 || s.Attrs < 0 || s.Attrs > MaxAttrs {
		return nil, fmt.Errorf("%w: not a state of N ≥ 0 rows over at most %d attributes", ErrCorruptState, MaxAttrs)
	}
	if !s.covers(s.N, s.Attrs) {
		return nil, fmt.Errorf("%w: a dependency names an attribute past %d", ErrCorruptState, s.Attrs)
	}
	return s, nil
}
