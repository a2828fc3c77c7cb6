package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"path/filepath"

	"structmine/internal/relation"
	"structmine/internal/store"
)

// WriteOptions tunes a colstore write (WriteFromRelation, Ingest,
// Append). The FS and Fsync fields should come from the owning store so
// fault injection and durability settings cover .col files too.
type WriteOptions struct {
	// FS is the filesystem to write through; nil selects the OS.
	FS store.FS
	// Fsync syncs the file before the rename that publishes it.
	Fsync bool
	// PageRows overrides the tuples per page (0 = relation.DefaultPageRows).
	// Append ignores it: a lineage keeps the stripe geometry it was
	// registered with.
	PageRows int
}

func (o WriteOptions) normalized() WriteOptions {
	if o.FS == nil {
		o.FS = store.OS()
	}
	if o.PageRows == 0 {
		o.PageRows = relation.DefaultPageRows
	}
	return o
}

// baseIndex is the value index a written tail extends: rows [0, n)
// and value ids [0, d) as an earlier file of the lineage encoded them.
// An append passes the old file's dictionary and index sections, which
// the new tail splices in; the zero value is the empty index a fresh
// write extends.
type baseIndex struct {
	n     int64
	d     int
	nulls []int    // NULL counts per attribute; nil for none
	dict  []byte   // the d dictionary strings, as encoded
	attrs [][]byte // attribute a's index section; nil for none
}

// writer encodes one .col file from an interned relation: rows arrive
// one at a time and pages flush stripe by stripe. The writer assigns no
// ids — names, attributes and the dictionary written to the tail are
// dict's, and dict's rows are the rows after the base index's, whose
// value index finish builds (Append writes old pages, then the appended
// rows, under the extended dictionary). Beyond dict and the base index,
// memory is O(m·pageRows) until the index is built.
type writer struct {
	f   store.File
	h   header
	off int64 // bytes written so far

	meta store.DatasetMeta
	dict *relation.Relation
	base baseIndex

	cols [][]int32 // m fill buffers, pageRows capacity each
	fill int       // rows buffered in the current stripe
	rows int64     // rows written so far

	idx index // dict's value index, built by finish

	scratch []byte
}

func newWriter(f store.File, h header, meta store.DatasetMeta, dict *relation.Relation, base baseIndex) (*writer, error) {
	w := &writer{
		f:       f,
		h:       h,
		meta:    meta,
		dict:    dict,
		base:    base,
		cols:    make([][]int32, h.m),
		scratch: make([]byte, 0, pageSize(h.pageRows)),
	}
	for a := range w.cols {
		w.cols[a] = make([]int32, h.pageRows)
	}
	return w, w.write(encodeHeader(h))
}

func (w *writer) write(b []byte) error {
	n, err := w.f.Write(b)
	w.off += int64(n)
	return err
}

// writeRow appends one tuple's value ids to its pages, flushing a full
// stripe.
func (w *writer) writeRow(row []int32) error {
	if w.rows >= w.h.n {
		return fmt.Errorf("colstore: more than the declared %d rows", w.h.n)
	}
	for a, v := range row {
		w.cols[a][w.fill] = v
	}
	w.rows++
	w.fill++
	if w.fill == w.h.pageRows {
		return w.flushStripe()
	}
	return nil
}

// index is the value index of the rows a write adds, built in two
// passes over their ids into one flat run array: the first counts each
// value's cells and runs, the second fills the runs. A value's slot in
// the tables is its id's rank among the ids the rows hold, so the
// tables are as large as the values the rows touch — for an append,
// not the whole dictionary.
type index struct {
	held  []uint64 // bit v is set when the rows hold value v
	rank  []int32  // set bits of held before word w
	count []int32  // cells per slot
	off   []int32  // slot s's runs are runs[off[s]:off[s+1]]
	runs  []relation.Run
}

// buildIndex indexes rel's rows, whose ids are below d, as rows t0 on
// of a file.
func buildIndex(rel *relation.Relation, t0 int64, d int) index {
	x := index{held: make([]uint64, (d+63)/64)}
	for t := 0; t < rel.N(); t++ {
		for _, v := range rel.Row(t) {
			x.held[v>>6] |= 1 << (v & 63)
		}
	}
	x.rank = make([]int32, len(x.held))
	k := 0
	for i, word := range x.held {
		x.rank[i] = int32(k)
		k += bits.OnesCount64(word)
	}
	x.count = make([]int32, k)
	x.off = make([]int32, k+1)
	last := make([]int32, k) // pass 1: the last row counted; pass 2: the next run
	for t := int32(0); t < int32(rel.N()); t++ {
		for _, v := range rel.Row(int(t)) {
			s := x.slot(v)
			if x.count[s] == 0 || last[s] != t-1 {
				x.off[s+1]++
			}
			x.count[s]++
			last[s] = t
		}
	}
	for s := range k {
		x.off[s+1] += x.off[s]
	}
	x.runs = make([]relation.Run, x.off[k])
	copy(last, x.off)
	for t := int32(0); t < int32(rel.N()); t++ {
		row := int32(t0) + t
		for _, v := range rel.Row(int(t)) {
			s := x.slot(v)
			if i := last[s] - 1; i >= x.off[s] && x.runs[i].Start+x.runs[i].Len == row {
				x.runs[i].Len++
			} else {
				x.runs[i+1] = relation.Run{Start: row, Len: 1}
				last[s]++
			}
		}
	}
	return x
}

// slot is the rank of value v among the held ids; v must be held.
func (x *index) slot(v int32) int32 {
	w := v >> 6
	return x.rank[w] + int32(bits.OnesCount64(x.held[w]&(1<<(v&63)-1)))
}

// postings returns value v's cell count and runs.
func (x *index) postings(v int32) (int, []relation.Run) {
	if x.held[v>>6]&(1<<(v&63)) == 0 {
		return 0, nil
	}
	s := x.slot(v)
	return int(x.count[s]), x.runs[x.off[s]:x.off[s+1]]
}

func (w *writer) flushStripe() error {
	for a := 0; a < w.h.m; a++ {
		b := w.scratch[:0]
		for _, v := range w.cols[a][:w.fill] {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
		if err := w.write(b); err != nil {
			return err
		}
	}
	w.fill = 0
	return nil
}

// finish flushes the partial stripe, writes the tail and footer, and
// reports whether the declared row count was met.
func (w *writer) finish() error {
	if w.rows != w.h.n {
		return fmt.Errorf("colstore: wrote %d rows, declared %d", w.rows, w.h.n)
	}
	if w.fill > 0 {
		if err := w.flushStripe(); err != nil {
			return err
		}
	}
	if want := w.h.dataEnd(); w.off != want {
		return fmt.Errorf("colstore: page section ends at %d, expected %d", w.off, want)
	}
	w.idx = buildIndex(w.dict, w.base.n, w.h.d)
	tail, err := w.encodeTail()
	if err != nil {
		return err
	}
	tailOff := w.off
	if err := w.write(tail); err != nil {
		return err
	}
	return w.write(encodeFooter(tailOff, int64(len(tail)), crc32.ChecksumIEEE(tail)))
}

// encodeTail renders the metadata + value-index tail over the base
// index. Value ids are delta-encoded in ascending order per attribute;
// posting runs are delta-encoded from the previous run's end.
func (w *writer) encodeTail() ([]byte, error) {
	// Room for the base's bytes, the new strings, and about four bytes
	// of postings per indexed cell, so the buffer seldom grows.
	size := len(w.base.dict) + 4*int(w.rows-w.base.n)*w.h.m + 1<<12
	for _, sec := range w.base.attrs {
		size += len(sec)
	}
	for v := w.base.d; v < w.h.d; v++ {
		size += len(w.dict.ValueString(int32(v))) + 2
	}
	buf := make([]byte, 0, size)
	appendString := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	appendString(w.meta.Hash)
	appendString(w.meta.Name)
	appendString(w.meta.Source)
	buf = binary.AppendUvarint(buf, uint64(w.meta.Bytes))
	appendString(w.meta.ID)
	buf = binary.AppendUvarint(buf, uint64(w.meta.Epoch))
	appendString(w.dict.Name)
	for _, a := range w.dict.Attrs {
		appendString(a)
	}
	for a := 0; a < w.h.m; a++ {
		c := 0
		if id, ok := w.dict.ValueID(a, relation.Null); ok {
			c, _ = w.idx.postings(id)
		}
		if w.base.nulls != nil {
			c += w.base.nulls[a]
		}
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	// The dictionary in id order — the base's strings as encoded, then
	// the new ones — then one index section per attribute. Ids of one
	// attribute are ascending because interning order is global
	// first-appearance order.
	buf = append(buf, w.base.dict...)
	newIDs := make([][]int32, w.h.m)
	for v := w.base.d; v < w.h.d; v++ {
		appendString(w.dict.ValueString(int32(v)))
		a := w.dict.ValueAttr(int32(v))
		newIDs[a] = append(newIDs[a], int32(v))
	}
	for a := 0; a < w.h.m; a++ {
		var old []byte
		if w.base.attrs != nil {
			old = w.base.attrs[a]
		}
		var err error
		if buf, err = w.spliceSection(buf, old, newIDs[a]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// spliceSection appends one attribute's index section: the base's
// section old extended by the written rows, then the values newIDs the
// base does not hold. Every new id sorts after every old one, so an old
// value keeps its id delta, and one the written rows do not hold keeps
// its count and runs too: its entry is copied byte for byte. A held one
// keeps its runs but the last, which the first new run extends when it
// starts where the old rows end; the new runs follow it.
func (w *writer) spliceSection(buf, old []byte, newIDs []int32) ([]byte, error) {
	r := &tailReader{buf: old}
	nOld := 0
	if len(old) > 0 {
		var err error
		if nOld, err = r.count(3); err != nil {
			return nil, err
		}
	}
	buf = binary.AppendUvarint(buf, uint64(nOld+len(newIDs)))
	prev := int64(-1)
	for i := 0; i < nOld; i++ {
		from := r.off
		v, count, err := decodeValueHead(r, prev)
		if err != nil {
			return nil, err
		}
		if v >= int64(w.base.d) {
			return nil, fmt.Errorf("%w: value id %d with d=%d", ErrCorrupt, v, w.base.d)
		}
		delta := v - prev
		prev = v
		nr, err := r.count(2)
		if err != nil {
			return nil, err
		}
		runsFrom, end := r.off, int64(0)
		var lastFrom int
		var lastDelta, lastLen uint64
		for j := 0; j < nr; j++ {
			lastFrom = r.off
			d, ln, ok := r.run1()
			if !ok {
				if d, ln, err = r.run(); err != nil {
					return nil, err
				}
			}
			lastDelta, lastLen = d, ln
			end += int64(d + ln)
		}
		added, runs := w.idx.postings(int32(v))
		if added == 0 {
			buf = append(buf, old[from:r.off]...)
			continue
		}
		merge := nr > 0 && end == w.base.n && int64(runs[0].Start) == end
		newNR := nr + len(runs)
		if merge {
			lastLen += uint64(runs[0].Len)
			end += int64(runs[0].Len)
			runs, newNR = runs[1:], newNR-1
		}
		buf = binary.AppendUvarint(buf, uint64(delta))
		buf = binary.AppendUvarint(buf, count+uint64(added))
		buf = binary.AppendUvarint(buf, uint64(newNR))
		if nr > 0 {
			buf = append(buf, old[runsFrom:lastFrom]...)
			buf = binary.AppendUvarint(buf, lastDelta)
			buf = binary.AppendUvarint(buf, lastLen)
		}
		buf = appendRuns(buf, runs, int32(end))
	}
	for _, v := range newIDs {
		count, runs := w.idx.postings(v)
		buf = binary.AppendUvarint(buf, uint64(int64(v)-prev))
		prev = int64(v)
		buf = binary.AppendUvarint(buf, uint64(count))
		buf = binary.AppendUvarint(buf, uint64(len(runs)))
		buf = appendRuns(buf, runs, 0)
	}
	return buf, nil
}

// appendRuns encodes runs, each start as a delta from the previous
// run's end, the first from end.
func appendRuns(buf []byte, runs []relation.Run, end int32) []byte {
	for _, r := range runs {
		buf = binary.AppendUvarint(buf, uint64(r.Start-end))
		buf = binary.AppendUvarint(buf, uint64(r.Len))
		end = r.Start + r.Len
	}
	return buf
}

// WriteFromRelation writes a resident relation as a .col file named
// meta.Hash+Ext under dir, returning the final path. Value ids are
// written as the relation interned them, so the file and the relation
// it came from agree on every id.
func WriteFromRelation(dir string, meta store.DatasetMeta, rel *relation.Relation, opt WriteOptions) (string, error) {
	return writeFile(dir, meta, opt.normalized(), rel, baseIndex{}, int64(rel.N()), func(w *writer) error {
		return w.writeRows(rel)
	})
}

// writeRows appends every tuple of rel.
func (w *writer) writeRows(rel *relation.Relation) error {
	for t := 0; t < rel.N(); t++ {
		if err := w.writeRow(rel.Row(t)); err != nil {
			return err
		}
	}
	return nil
}

// writeFile runs the temp→fsync→rename discipline around a writer body
// that writes n rows under dict's schema and dictionary, indexing them
// over base.
func writeFile(dir string, meta store.DatasetMeta, opt WriteOptions, dict *relation.Relation, base baseIndex, n int64, body func(*writer) error) (string, error) {
	if meta.Hash == "" || meta.Hash != filepath.Base(meta.Hash) {
		return "", fmt.Errorf("colstore: invalid dataset hash %q", meta.Hash)
	}
	name := meta.Hash + Ext
	path := filepath.Join(dir, name)
	f, err := opt.FS.CreateTemp(dir, store.TempPrefix+name+"-*")
	if err != nil {
		return "", err
	}
	tmp := f.Name()
	fail := func(err error) (string, error) {
		f.Close()
		_ = opt.FS.Remove(tmp)
		return "", err
	}
	h := header{pageRows: opt.PageRows, m: dict.M(), n: n, d: dict.D()}
	w, err := newWriter(f, h, meta, dict, base)
	if err != nil {
		return fail(err)
	}
	if err := body(w); err != nil {
		return fail(err)
	}
	if err := w.finish(); err != nil {
		return fail(err)
	}
	if opt.Fsync {
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	}
	if err := f.Close(); err != nil {
		_ = opt.FS.Remove(tmp)
		return "", err
	}
	if err := opt.FS.Rename(tmp, path); err != nil {
		_ = opt.FS.Remove(tmp)
		return "", err
	}
	if opt.Fsync {
		_ = opt.FS.SyncDir(dir) // best effort; rename already ordered the data
	}
	return path, nil
}
