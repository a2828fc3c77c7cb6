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
// same metadata: full old stripes are copied verbatim (their offsets
// and CRCs are position-independent), and the trailing partial stripe
// and the appended rows are replayed through the normal writer. Memory
// is the dictionary, the value index and one page stripe, plus the
// appended body and its rows.
func Append(dir string, newMeta store.DatasetMeta, old *Table, body []byte, lim relation.Limits, opt WriteOptions) (string, error) {
	opt = opt.normalized()
	// Stripe geometry is inherited: mixing page sizes within one lineage
	// would break the verbatim stripe copy and the fresh-write identity.
	opt.PageRows = old.h.pageRows

	raw, err := old.rawDict()
	if err != nil {
		return "", err
	}
	dict, err := relation.FromRaw(raw)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	ext, _, err := relation.AppendCSV(dict, body, lim)
	if err != nil {
		return "", err
	}

	m, oldD, oldN := old.h.m, old.h.d, old.h.n
	pageRows := int64(old.h.pageRows)
	fullStart := (oldN / pageRows) * pageRows

	return writeFile(dir, newMeta, opt, ext, oldN+int64(ext.N()), func(w *writer) error {
		// Copy full old stripes verbatim, re-checking each page CRC on
		// the way through so corruption never propagates into a new file.
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

		// Seed the value index with the old postings clipped to the
		// copied rows; the replay below re-extends them, merging runs
		// exactly as an uninterrupted writer would have.
		for a := 0; a < m; a++ {
			err := old.VisitValues(a, func(v int32, count int, runs []relation.Run) error {
				p := &w.post[v]
				for _, run := range runs {
					if int64(run.Start) >= fullStart {
						break
					}
					if end := int64(run.Start) + int64(run.Len); end > fullStart {
						run.Len = int32(fullStart) - run.Start
					}
					p.count += int(run.Len)
					p.runs = append(p.runs, run)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if id := w.nullID[a]; id >= 0 && int(id) < oldD {
				w.nullCount[a] = w.post[id].count
			}
		}

		// Replay the trailing partial stripe from the old pages, then the
		// appended rows.
		if oldN > fullStart {
			tailLen := int(oldN - fullStart)
			cols, err := old.ReadStripe(fullStripes, relation.AllAttrs(old), nil)
			if err != nil {
				return err
			}
			row := make([]int32, m)
			for t := 0; t < tailLen; t++ {
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
