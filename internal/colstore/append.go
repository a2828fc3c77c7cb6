package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"structmine/internal/relation"
	"structmine/internal/store"
)

// Append writes the post-append state of a dataset as a new .col file
// named newMeta.Hash+Ext under dir, extending old with the rows of the
// appended CSV body (header line plus data rows). The old file is left
// untouched; the caller removes it once the new one is published.
//
// The body goes through relation.AppendCSV against a rowless relation
// holding the old file's schema and dictionary, so the header check,
// the limits, the error texts and the ids of unseen values (dense,
// after the old dictionary, in first-appearance order) are exactly
// those of an append to the resident relation. The output is
// byte-identical to a fresh write of the concatenated source under the
// same metadata, and most of it is copied: full old stripes verbatim
// (their offsets and CRCs are position-independent), the old
// dictionary, and every index entry of a value the appended rows do not
// hold (see writer.spliceSection). The trailing partial stripe is
// replayed into its pages, and only the appended rows are indexed.
// Memory is the old tail, the decoded dictionary and one page stripe,
// plus the appended body, its rows and their postings.
func Append(dir string, newMeta store.DatasetMeta, old *Table, body []byte, lim relation.Limits, opt WriteOptions) (string, error) {
	opt = opt.normalized()
	// Stripe geometry is inherited: mixing page sizes within one lineage
	// would break the verbatim stripe copy and the fresh-write identity.
	opt.PageRows = old.h.pageRows

	// One read of the old tail, re-checked against its CRC like every
	// copied page, so corruption never propagates into a new file: the
	// dictionary interns the body, and the index sections are spliced.
	m, oldD, oldN := old.h.m, old.h.d, old.h.n
	r, done, err := old.section(0, old.attrIndexOff[m])
	if err != nil {
		return "", err
	}
	defer done()
	tail := r.buf
	if got := crc32.ChecksumIEEE(tail); got != old.tailCRC {
		return "", fmt.Errorf("%w: tail CRC32 %08x, computed %08x", ErrCorrupt, old.tailCRC, got)
	}
	r.off = old.dictOff
	raw := relation.Raw{Name: old.relName, Attrs: old.attrs, ValueAttr: make([]int, oldD)}
	if raw.ValueStr, err = decodeStrings(r, oldD); err != nil {
		return "", err
	}
	for v, a := range old.valueAttr {
		raw.ValueAttr[v] = int(a)
	}
	dict, err := relation.FromRaw(raw)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	ext, _, err := relation.AppendCSV(dict, body, lim)
	if err != nil {
		return "", err
	}
	base := baseIndex{n: oldN, d: oldD, nulls: old.nullCounts,
		dict: tail[old.dictOff:old.attrIndexOff[0]], attrs: make([][]byte, m)}
	for a := range base.attrs {
		base.attrs[a] = tail[old.attrIndexOff[a]:old.attrIndexOff[a+1]]
	}

	pageRows := int64(old.h.pageRows)
	fullStart := (oldN / pageRows) * pageRows
	return writeFile(dir, newMeta, opt, ext, base, oldN+int64(ext.N()), func(w *writer) error {
		// Copy full old stripes verbatim, re-checking each page CRC on
		// the way through.
		fullStripes := int(fullStart / pageRows)
		for s := 0; s < fullStripes; s++ {
			for a := 0; a < m; a++ {
				off := old.h.pageOff(s, a)
				b, err := old.mm.readAt(off, int(pageSize(old.h.pageRows)))
				if err != nil {
					return err
				}
				data := b[:old.h.pageRows*4]
				if got, want := binary.LittleEndian.Uint32(b[len(data):]), crc32.ChecksumIEEE(data); got != want {
					return fmt.Errorf("%w: page (%d,%d) CRC32 %08x, computed %08x", ErrCorrupt, s, a, got, want)
				}
				if err := w.write(b); err != nil {
					return err
				}
				old.mm.release(off, len(b))
			}
		}
		w.rows = fullStart

		// Replay the trailing partial stripe into its pages (the base
		// index holds its postings), then write the appended rows.
		if oldN > fullStart {
			cols, err := old.ReadStripe(fullStripes, relation.AllAttrs(old), nil)
			if err != nil {
				return err
			}
			row := make([]int32, m)
			for t := 0; t < int(oldN-fullStart); t++ {
				for a := 0; a < m; a++ {
					row[a] = cols[a][t]
				}
				if err := w.writeRow(row); err != nil {
					return err
				}
			}
		}
		return w.writeRows(ext)
	})
}
