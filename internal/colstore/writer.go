package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// posting accumulates one value's run-length-compressed tuple postings
// during the write pass.
type posting struct {
	count int
	runs  []relation.Run
}

// writer encodes one .col file from an interned relation: rows arrive
// one at a time, pages flush stripe by stripe, and the value index
// accumulates as runs. The writer assigns no ids — names, attributes
// and the dictionary written to the tail are dict's, whose own rows
// need not be the rows written (Append writes old pages under the
// extended dictionary). Beyond dict, memory is O(m·pageRows + runs).
type writer struct {
	f   store.File
	h   header
	off int64 // bytes written so far

	meta store.DatasetMeta
	dict *relation.Relation

	cols [][]int32 // m fill buffers, pageRows capacity each
	fill int       // rows buffered in the current stripe
	rows int64     // rows written so far

	post      []posting
	nullID    []int32 // per attribute, -1 when NULL never occurs
	nullCount []int

	scratch []byte
}

func newWriter(f store.File, h header, meta store.DatasetMeta, dict *relation.Relation) (*writer, error) {
	w := &writer{
		f:         f,
		h:         h,
		meta:      meta,
		dict:      dict,
		cols:      make([][]int32, h.m),
		post:      make([]posting, h.d),
		nullID:    make([]int32, h.m),
		nullCount: make([]int, h.m),
		scratch:   make([]byte, 0, pageSize(h.pageRows)),
	}
	for a := range w.cols {
		w.cols[a] = make([]int32, h.pageRows)
		w.nullID[a] = -1
		if id, ok := dict.ValueID(a, relation.Null); ok {
			w.nullID[a] = id
		}
	}
	return w, w.write(encodeHeader(h))
}

func (w *writer) write(b []byte) error {
	n, err := w.f.Write(b)
	w.off += int64(n)
	return err
}

// writeRow appends one tuple's value ids, flushing a full stripe.
func (w *writer) writeRow(row []int32) error {
	if w.rows >= w.h.n {
		return fmt.Errorf("colstore: more than the declared %d rows", w.h.n)
	}
	t := int32(w.rows)
	for a, v := range row {
		w.cols[a][w.fill] = v
		p := &w.post[v]
		p.count++
		if k := len(p.runs); k > 0 && p.runs[k-1].Start+p.runs[k-1].Len == t {
			p.runs[k-1].Len++
		} else {
			p.runs = append(p.runs, relation.Run{Start: t, Len: 1})
		}
		if v == w.nullID[a] {
			w.nullCount[a]++
		}
	}
	w.rows++
	w.fill++
	if w.fill == w.h.pageRows {
		return w.flushStripe()
	}
	return nil
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
	tail := w.encodeTail()
	tailOff := w.off
	if err := w.write(tail); err != nil {
		return err
	}
	return w.write(encodeFooter(tailOff, int64(len(tail)), crc32.ChecksumIEEE(tail)))
}

// encodeTail renders the metadata + value-index tail. Value ids are
// delta-encoded in ascending order per attribute; posting runs are
// delta-encoded from the previous run's end.
func (w *writer) encodeTail() []byte {
	buf := make([]byte, 0, 1<<12)
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
	for _, c := range w.nullCount {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	// The dictionary in id order, then one index section per attribute.
	// Ids of one attribute are ascending because interning order is
	// global first-appearance order.
	byAttr := make([][]int32, w.h.m)
	for v := range w.post {
		appendString(w.dict.ValueString(int32(v)))
		a := w.dict.ValueAttr(int32(v))
		byAttr[a] = append(byAttr[a], int32(v))
	}
	for a := 0; a < w.h.m; a++ {
		ids := byAttr[a]
		buf = binary.AppendUvarint(buf, uint64(len(ids)))
		prev := int64(-1)
		for _, v := range ids {
			p := &w.post[v]
			buf = binary.AppendUvarint(buf, uint64(int64(v)-prev))
			prev = int64(v)
			buf = binary.AppendUvarint(buf, uint64(p.count))
			buf = binary.AppendUvarint(buf, uint64(len(p.runs)))
			end := int32(0)
			for _, r := range p.runs {
				buf = binary.AppendUvarint(buf, uint64(r.Start-end))
				buf = binary.AppendUvarint(buf, uint64(r.Len))
				end = r.Start + r.Len
			}
		}
	}
	return buf
}

// WriteFromRelation writes a resident relation as a .col file named
// meta.Hash+Ext under dir, returning the final path. Value ids are
// written as the relation interned them, so the file and the relation
// it came from agree on every id.
func WriteFromRelation(dir string, meta store.DatasetMeta, rel *relation.Relation, opt WriteOptions) (string, error) {
	return writeFile(dir, meta, opt.normalized(), rel, int64(rel.N()), func(w *writer) error {
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
// that writes n rows under dict's schema and dictionary.
func writeFile(dir string, meta store.DatasetMeta, opt WriteOptions, dict *relation.Relation, n int64, body func(*writer) error) (string, error) {
	if meta.Hash == "" || meta.Hash != filepath.Base(meta.Hash) {
		return "", fmt.Errorf("colstore: invalid dataset hash %q", meta.Hash)
	}
	base := meta.Hash + Ext
	path := filepath.Join(dir, base)
	f, err := opt.FS.CreateTemp(dir, store.TempPrefix+base+"-*")
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
	w, err := newWriter(f, h, meta, dict)
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
