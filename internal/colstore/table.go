package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync/atomic"
	"time"

	"structmine/internal/relation"
	"structmine/internal/store"
)

// mapping is the read abstraction under Table: mmap where available
// (mmap_unix.go), plain pread elsewhere or under the colstore_readat
// build tag (mmap_fallback.go). readAt may return memory aliasing the
// mapping; callers must not retain it across close. release says a range
// readAt returned has been decoded and need not stay resident — without
// it every page a scan ever read stays in the process's resident set.
type mapping interface {
	readAt(off int64, n int) ([]byte, error)
	release(off int64, n int)
	size() int64
	close() error
}

// Table is an open columnar relation file. It implements
// relation.Columns, so every kernel written against the paged interface
// runs over it unchanged. Methods are safe for concurrent use; the only
// mutable state is the first-touch validation bitmap.
//
// Pages are validated lazily: the first read of a (page, attribute)
// pair checks the page CRC and that every id belongs to the attribute
// (a "page fault" in the metrics); later reads skip revalidation. The
// tail — metadata and value index — is fully validated at Open, in one
// pass that also yields every attribute's marginal (Table.Marginal, so
// describe decodes nothing). Nothing read from the tail stays resident:
// Open releases the tail once parsed, and VisitValues and ValueStrings
// read only the section they decode and release it after.
type Table struct {
	path string
	meta store.DatasetMeta

	h       header
	relName string
	attrs   []string

	mm      mapping
	tailOff int64
	tailCRC uint32

	nullCounts []int
	valueAttr  []int32
	marginals  []relation.AttrMarginal
	// dictOff is the offset within the tail of the dictionary-string
	// section, which ends at attrIndexOff[0]; the d strings stay on disk
	// (ValueStrings decodes them on demand for appends) rather than
	// resident.
	dictOff int
	// attrIndexOff[a] is the offset within the tail of attribute a's
	// value-index section, and attrIndexOff[a+1] its end (attrIndexOff[m]
	// is the tail's length); VisitValues decodes it streaming from the
	// mapped file rather than keeping postings resident.
	attrIndexOff []int

	// faults is the validation bitmap, bit s*m+a, read with atomic loads
	// on every page read (the scan hot path) and set with CAS only after
	// a page validates. A racing pair of first readers both validate —
	// harmless duplicate work — but a reader can never skip the CRC of a
	// page that has not yet validated successfully.
	faults []atomic.Uint64
}

// Open maps and validates a .col file. Corrupt files fail with an error
// wrapping ErrCorrupt; callers quarantine them.
func Open(path string) (*Table, error) {
	mm, err := openMapping(path)
	if err != nil {
		return nil, err
	}
	t, err := newTable(path, mm)
	if err != nil {
		mm.close()
		return nil, err
	}
	openRelations.Add(1)
	return t, nil
}

func newTable(path string, mm mapping) (*Table, error) {
	size := mm.size()
	if size < headerSize+footerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the envelope", ErrCorrupt, size)
	}
	hb, err := mm.readAt(0, headerSize)
	if err != nil {
		return nil, err
	}
	h, err := decodeHeader(hb)
	if err != nil {
		return nil, err
	}
	fb, err := mm.readAt(size-footerSize, footerSize)
	if err != nil {
		return nil, err
	}
	tailOff, tailLen, tailCRC, err := decodeFooter(fb)
	if err != nil {
		return nil, err
	}
	if tailOff != h.dataEnd() || tailOff+tailLen != size-footerSize {
		return nil, fmt.Errorf("%w: tail [%d,%d) disagrees with header layout (data ends %d, file %d)",
			ErrCorrupt, tailOff, tailOff+tailLen, h.dataEnd(), size)
	}
	tail, err := mm.readAt(tailOff, int(tailLen))
	if err != nil {
		return nil, err
	}
	if got := crc32.ChecksumIEEE(tail); got != tailCRC {
		return nil, fmt.Errorf("%w: tail CRC32 %08x, computed %08x", ErrCorrupt, tailCRC, got)
	}

	t := &Table{
		path:    path,
		h:       h,
		mm:      mm,
		tailOff: tailOff,
		tailCRC: tailCRC,
		faults:  make([]atomic.Uint64, (h.numStripes()*h.m+63)/64),
	}
	err = t.parseTail(tail)
	mm.release(tailOff, len(tail))
	if err != nil {
		return nil, err
	}
	return t, nil
}

// parseTail decodes and fully validates the metadata and value index,
// and computes each attribute's marginal from the counts it checks.
// Neither the dictionary strings nor the postings are retained — only
// the section offsets, so ValueStrings and VisitValues can re-decode
// them streaming, each from its own section.
func (t *Table) parseTail(tail []byte) error {
	r := &tailReader{buf: tail}
	var err error
	read := func(dst *string) {
		if err == nil {
			*dst, err = r.string()
		}
	}
	read(&t.meta.Hash)
	read(&t.meta.Name)
	read(&t.meta.Source)
	if err != nil {
		return err
	}
	csvBytes, err := r.uvarint()
	if err != nil {
		return err
	}
	t.meta.Bytes = int64(csvBytes)
	read(&t.meta.ID)
	if err != nil {
		return err
	}
	epoch, err := r.uvarint()
	if err != nil {
		return err
	}
	if epoch > 1<<31 {
		return fmt.Errorf("%w: epoch %d out of range", ErrCorrupt, epoch)
	}
	t.meta.Epoch = int(epoch)
	read(&t.relName)
	t.attrs = make([]string, t.h.m)
	for a := range t.attrs {
		read(&t.attrs[a])
	}
	if err != nil {
		return err
	}
	t.nullCounts = make([]int, t.h.m)
	for a := range t.nullCounts {
		c, cerr := r.uvarint()
		if cerr != nil {
			return cerr
		}
		if int64(c) > t.h.n {
			return fmt.Errorf("%w: attribute %d: %d NULLs in %d tuples", ErrCorrupt, a, c, t.h.n)
		}
		t.nullCounts[a] = int(c)
	}

	// The dictionary strings are bounds-checked in place, neither copied
	// nor retained; ValueStrings re-decodes them from the mapped tail.
	t.dictOff = r.off
	for i := 0; i < t.h.d; i++ {
		if _, serr := r.bytes(); serr != nil {
			return serr
		}
	}

	t.valueAttr = make([]int32, t.h.d)
	for i := range t.valueAttr {
		t.valueAttr[i] = -1
	}
	t.attrIndexOff = make([]int, t.h.m+1)
	t.marginals = make([]relation.AttrMarginal, t.h.m)
	var counts []int
	assigned := 0
	for a := 0; a < t.h.m; a++ {
		t.attrIndexOff[a] = r.off
		nv, err := r.count(3) // ≥ id delta + count + numRuns per value
		if err != nil {
			return err
		}
		counts = counts[:0]
		total := int64(0)
		prev := int64(-1)
		for i := 0; i < nv; i++ {
			v, count, err := decodeValueHead(r, prev)
			if err != nil {
				return err
			}
			prev = v
			if v >= int64(t.h.d) {
				return fmt.Errorf("%w: value id %d with d=%d", ErrCorrupt, v, t.h.d)
			}
			if t.valueAttr[v] != -1 {
				return fmt.Errorf("%w: value id %d indexed twice", ErrCorrupt, v)
			}
			t.valueAttr[v] = int32(a)
			assigned++
			got, err := validateRuns(r, t.h.n)
			if err != nil {
				return err
			}
			if got != int64(count) {
				return fmt.Errorf("%w: value %d: runs cover %d tuples, count says %d", ErrCorrupt, v, got, count)
			}
			total += int64(count)
			counts = append(counts, int(count))
		}
		if total != t.h.n {
			return fmt.Errorf("%w: attribute %d postings cover %d of %d tuples", ErrCorrupt, a, total, t.h.n)
		}
		t.marginals[a] = relation.MarginalOfCounts(counts, int(t.h.n))
	}
	t.attrIndexOff[t.h.m] = r.off
	if assigned != t.h.d {
		return fmt.Errorf("%w: index covers %d of %d values", ErrCorrupt, assigned, t.h.d)
	}
	if r.off != len(tail) {
		return fmt.Errorf("%w: %d trailing tail bytes", ErrCorrupt, len(tail)-r.off)
	}
	return nil
}

// decodeValueHead reads one value's id (delta from prev) and count.
func decodeValueHead(r *tailReader, prev int64) (v int64, count uint64, err error) {
	delta, err := r.uvarint()
	if err != nil {
		return 0, 0, err
	}
	if delta == 0 || delta > 1<<32 {
		return 0, 0, fmt.Errorf("%w: value id delta %d", ErrCorrupt, delta)
	}
	v = prev + int64(delta)
	count, err = r.uvarint()
	return v, count, err
}

// validateRuns decodes one value's run list, checking ascending
// disjoint runs within [0, n), and returns the tuples covered.
func validateRuns(r *tailReader, n int64) (int64, error) {
	nr, err := r.count(2) // ≥ startDelta + len per run
	if err != nil {
		return 0, err
	}
	covered := int64(0)
	end := int64(0)
	for j := 0; j < nr; j++ {
		startDelta, ln, ok := r.run1()
		if !ok {
			if startDelta, ln, err = r.run(); err != nil {
				return 0, err
			}
		}
		start := end + int64(startDelta)
		if ln == 0 || start+int64(ln) > n {
			return 0, fmt.Errorf("%w: run [%d,%d) outside %d tuples", ErrCorrupt, start, start+int64(ln), n)
		}
		end = start + int64(ln)
		covered += int64(ln)
	}
	return covered, nil
}

// Close unmaps the file. The Table must not be used after.
func (t *Table) Close() error {
	openRelations.Add(-1)
	return t.mm.close()
}

// Meta returns the registration metadata stored in the file, making
// .col files self-describing for boot adoption.
func (t *Table) Meta() store.DatasetMeta { return t.meta }

// ValueStrings decodes the dictionary — value id → string — from the
// mapped tail. The result is freshly allocated per call: an append needs
// the full dictionary once, but steady-state mining never does, so the
// strings are not kept resident, and neither are the section's pages.
func (t *Table) ValueStrings() ([]string, error) {
	r, done, err := t.section(t.dictOff, t.attrIndexOff[0])
	if err != nil {
		return nil, err
	}
	defer done()
	return decodeStrings(r, t.h.d)
}

// decodeStrings decodes d length-prefixed strings.
func decodeStrings(r *tailReader, d int) ([]string, error) {
	out := make([]string, d)
	for i := range out {
		var err error
		if out[i], err = r.string(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Path returns the file path the table was opened from.
func (t *Table) Path() string { return t.path }

// --- relation.Columns ---

func (t *Table) Name() string        { return t.relName }
func (t *Table) N() int              { return int(t.h.n) }
func (t *Table) M() int              { return t.h.m }
func (t *Table) D() int              { return t.h.d }
func (t *Table) AttrNames() []string { return t.attrs }
func (t *Table) PageRows() int       { return t.h.pageRows }
func (t *Table) NumPages() int       { return t.h.numStripes() }

func (t *Table) PageLen(p int) int {
	if p < 0 || p >= t.h.numStripes() {
		return 0
	}
	return t.h.stripeLen(p)
}

// ReadStripe reads the pages of every attribute in attrs for stripe p
// with one contiguous fetch — the pages of a stripe are adjacent on
// disk, so the span from the lowest to the highest requested attribute
// is a single readAt instead of len(attrs) seeks. Validation stays
// per-(page, attribute).
func (t *Table) ReadStripe(p int, attrs []int, dst [][]int32) ([][]int32, error) {
	rows := t.PageLen(p)
	if rows == 0 {
		return nil, fmt.Errorf("colstore: page %d out of range (have %d)", p, t.h.numStripes())
	}
	if len(attrs) == 0 {
		return dst[:0], nil
	}
	lo, hi := attrs[0], attrs[0]
	for _, a := range attrs {
		if a < 0 || a >= t.h.m {
			return nil, fmt.Errorf("colstore: attribute %d out of range (have %d)", a, t.h.m)
		}
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	start := time.Now()
	ps := pageSize(rows)
	b, err := t.mm.readAt(t.h.pageOff(p, lo), int(int64(hi-lo+1)*ps))
	if err != nil {
		return nil, err
	}
	pagesRead.Add(uint64(len(attrs)))
	if len(dst) < len(attrs) {
		grown := make([][]int32, len(attrs))
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:len(attrs)]
	for i, a := range attrs {
		dst[i] = sizePage(dst[i], rows, t.h.pageRows)
		page := b[int64(a-lo)*ps : int64(a-lo+1)*ps]
		if err := t.decodePage(page, p, a, rows, dst[i]); err != nil {
			return nil, err
		}
	}
	t.mm.release(t.h.pageOff(p, lo), len(b))
	pageReadSeconds.Observe(time.Since(start).Seconds())
	return dst, nil
}

// sizePage readies dst for rows values, allocating the full nominal
// page size when it must grow so the buffer is reusable across every
// page of the table (only the tail page is shorter).
func sizePage(dst []int32, rows, pageRows int) []int32 {
	if cap(dst) < rows {
		n := pageRows
		if rows > n {
			n = rows
		}
		return make([]int32, n)[:rows]
	}
	return dst[:rows]
}

// decodePage decodes one on-disk page (data + CRC) into dst, verifying
// the CRC and that every id belongs to attribute a the first time the
// (p,a) page is seen. Validation is marked only after it succeeds, so
// concurrent first readers may both validate (harmless) but no reader
// ever skips the CRC of a never-validated page. Failed validations are
// not marked: a corrupt page error is terminal for the consuming job
// either way, and the error path re-surfaces on reopen.
func (t *Table) decodePage(b []byte, p, a, rows int, dst []int32) error {
	validate := !t.validated(p, a)
	if validate {
		data := b[:rows*4]
		if got, want := binary.LittleEndian.Uint32(b[rows*4:]), crc32.ChecksumIEEE(data); got != want {
			return fmt.Errorf("%w: page (%d,%d) CRC32 %08x, computed %08x", ErrCorrupt, p, a, got, want)
		}
	}
	for i := 0; i < rows; i++ {
		v := int32(binary.LittleEndian.Uint32(b[i*4:]))
		if validate && (v < 0 || int(v) >= t.h.d || t.valueAttr[v] != int32(a)) {
			return fmt.Errorf("%w: page (%d,%d) row %d holds foreign value id %d", ErrCorrupt, p, a, i, v)
		}
		dst[i] = v
	}
	if validate {
		t.markValidated(p, a)
	}
	return nil
}

// validated reports whether page (p,a) has already passed validation.
// One atomic load — the steady-state scan hot path takes no lock.
func (t *Table) validated(p, a int) bool {
	bit := uint(p*t.h.m + a)
	return t.faults[bit/64].Load()&(1<<(bit%64)) != 0
}

// markValidated sets the page's bit after a successful validation; the
// CAS winner counts the metrics "page fault" so racing first readers
// are counted once.
func (t *Table) markValidated(p, a int) {
	bit := uint(p*t.h.m + a)
	w := &t.faults[bit/64]
	mask := uint64(1) << (bit % 64)
	for {
		old := w.Load()
		if old&mask != 0 {
			return
		}
		if w.CompareAndSwap(old, old|mask) {
			pageFaults.Inc()
			return
		}
	}
}

func (t *Table) VisitValues(a int, runs *[]relation.Run, f func(v int32, count int, runs []relation.Run) error) error {
	if a < 0 || a >= t.h.m {
		return fmt.Errorf("colstore: attribute %d out of range (have %d)", a, t.h.m)
	}
	r, done, err := t.section(t.attrIndexOff[a], t.attrIndexOff[a+1])
	if err != nil {
		return err
	}
	defer done()
	nv, err := r.count(3)
	if err != nil {
		return err
	}
	if runs == nil {
		runs = new([]relation.Run)
	}
	prev := int64(-1)
	for i := 0; i < nv; i++ {
		v, count, err := decodeValueHead(r, prev)
		if err != nil {
			return err
		}
		prev = v
		nr, err := r.count(2)
		if err != nil {
			return err
		}
		rs := (*runs)[:0]
		end := int32(0)
		for j := 0; j < nr; j++ {
			startDelta, ln, ok := r.run1()
			if !ok {
				if startDelta, ln, err = r.run(); err != nil {
					return err
				}
			}
			start := end + int32(startDelta)
			end = start + int32(ln)
			rs = append(rs, relation.Run{Start: start, Len: int32(ln)})
		}
		*runs = rs
		if err := f(int32(v), int(count), rs); err != nil {
			return err
		}
	}
	return nil
}

// section reads the tail bytes [lo, hi) — offsets within the tail — for
// one decode; done releases them. The mapping is read-only and the file
// immutable, so a later read of the same bytes takes a minor fault.
func (t *Table) section(lo, hi int) (r *tailReader, done func(), err error) {
	off := t.tailOff + int64(lo)
	b, err := t.mm.readAt(off, hi-lo)
	if err != nil {
		return nil, nil, err
	}
	return &tailReader{buf: b}, func() { t.mm.release(off, hi-lo) }, nil
}

func (t *Table) ValueAttr(v int32) int { return int(t.valueAttr[v]) }

func (t *Table) NullCount(a int) int { return t.nullCounts[a] }

// Marginal serves the marginal Open's validation pass computed.
func (t *Table) Marginal(a int) (relation.AttrMarginal, error) { return t.marginals[a], nil }

var _ relation.Columns = (*Table)(nil)
