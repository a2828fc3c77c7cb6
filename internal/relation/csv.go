package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
)

// Limits bounds CSV parsing so a service ingesting untrusted uploads
// cannot be driven out of memory. Zero values mean "no limit".
type Limits struct {
	// MaxRows caps the number of data rows (the header is not counted).
	MaxRows int
	// MaxFields caps the number of columns, checked on the header line.
	MaxFields int
	// MaxBytes caps the number of input bytes consumed, checked after
	// each record, so a streaming register pass fails fast with a
	// line-numbered error instead of parsing an oversized body to the
	// end.
	MaxBytes int64
}

// ReadCSV parses a header-first CSV stream into a Relation with no row or
// field limits. Empty fields become NULL. Duplicate attribute names in
// the header are rejected: attribute-qualified value identity (and every
// by-name lookup) silently misbehaves when two columns share a name.
func ReadCSV(name string, r io.Reader) (*Relation, error) {
	return ReadCSVLimited(name, r, Limits{})
}

// ReadCSVLimited parses a header-first CSV stream into a Relation,
// enforcing the given limits. All errors carry the 1-based line number.
func ReadCSVLimited(name string, r io.Reader, lim Limits) (*Relation, error) {
	var b *Builder
	err := ScanCSV(r, lim, func(header []string) error {
		b = NewBuilder(name, header)
		return nil
	}, func(line int, rec []string) error {
		if err := b.Add(rec); err != nil {
			return fmt.Errorf("relation: line %d: %w", line, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b.Relation(), nil
}

// ScanCSV streams a header-first CSV without materializing anything:
// the header callback runs once after validation, then the row callback
// runs per data record with its 1-based line number. The record slice
// is reused between calls; callbacks must copy what they keep. Every
// error carries the line number. ReadCSVLimited and AppendCSV — the
// only CSV parses behind a registration or an append, on either storage
// tier — both run over this, so limits and error texts cannot drift.
func ScanCSV(r io.Reader, lim Limits, onHeader func(header []string) error, onRow func(line int, rec []string) error) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("relation: reading CSV header: %w", err)
	}
	header = append([]string(nil), header...)
	if lim.MaxFields > 0 && len(header) > lim.MaxFields {
		return fmt.Errorf("relation: line 1: header has %d fields, limit is %d (after %d bytes)", len(header), lim.MaxFields, cr.InputOffset())
	}
	if lim.MaxBytes > 0 && cr.InputOffset() > lim.MaxBytes {
		return fmt.Errorf("relation: line 1: byte limit of %d exceeded (header alone is %d bytes)", lim.MaxBytes, cr.InputOffset())
	}
	seen := make(map[string]int, len(header))
	for i, a := range header {
		if first, dup := seen[a]; dup {
			return fmt.Errorf("relation: line 1: duplicate attribute name %q (columns %d and %d)", a, first+1, i+1)
		}
		seen[a] = i
	}
	if err := onHeader(header); err != nil {
		return err
	}
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("relation: reading CSV: %w", err)
		}
		line++
		if lim.MaxRows > 0 && line-1 > lim.MaxRows {
			return fmt.Errorf("relation: line %d: row limit of %d data rows exceeded (after %d bytes)", line, lim.MaxRows, cr.InputOffset())
		}
		if lim.MaxBytes > 0 && cr.InputOffset() > lim.MaxBytes {
			return fmt.Errorf("relation: line %d: byte limit of %d exceeded (consumed %d bytes)", line, lim.MaxBytes, cr.InputOffset())
		}
		if len(rec) != len(header) {
			return fmt.Errorf("relation: line %d has %d fields, header has %d", line, len(rec), len(header))
		}
		if err := onRow(line, rec); err != nil {
			return err
		}
	}
}

// ReadCSVFile opens and parses a CSV file.
func ReadCSVFile(path string) (*Relation, error) {
	return ReadCSVFileLimited(path, Limits{})
}

// ReadCSVFileLimited opens and parses a CSV file under the given limits.
func ReadCSVFileLimited(path string, lim Limits) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSVLimited(path, f, lim)
}

// WriteCSV serializes the relation with a header row. NULLs are written
// as the literal token so a round-trip is lossless.
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if len(r.Attrs) == 1 && r.Attrs[0] == "" {
		// encoding/csv writes a lone empty field as an empty line, which
		// every reader skips: quote it, or the header is lost.
		if _, err := io.WriteString(w, "\"\"\n"); err != nil {
			return err
		}
	} else if err := cw.Write(r.Attrs); err != nil {
		return err
	}
	for t := 0; t < r.N(); t++ {
		if err := cw.Write(r.TupleStrings(t)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the relation to a file path.
func (r *Relation) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
