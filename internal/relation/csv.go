package relation

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"slices"
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
	return readCSV(name, &records{cr: newCSVReader(r)}, lim)
}

// ParseCSV is ReadCSVLimited over an in-memory body: the same relation,
// limits and error texts, but a body holding no '"' and no '\r' is
// split in place instead of going through encoding/csv (see records).
func ParseCSV(name string, data []byte, lim Limits) (*Relation, error) {
	return readCSV(name, newRecords(data), lim)
}

func readCSV(name string, src *records, lim Limits) (*Relation, error) {
	var b *Builder
	err := scanCSV(src, lim, func(header []string) error {
		b = NewBuilder(name, header)
		return nil
	}, func(fields [][]byte, strs []string) {
		b.addRecord(fields, strs)
	})
	if err != nil {
		return nil, err
	}
	return b.Relation(), nil
}

// records reads a CSV's records. A body that holds no '"' and no '\r'
// is split in place at '\n' and ',': with no quoted field and no line
// ending to fold, that is what encoding/csv reads from it, and like
// encoding/csv it skips empty lines. Any other input goes through
// encoding/csv.
type records struct {
	cr     *csv.Reader // nil for a quote-free body
	body   []byte      // the unread rest of a quote-free body
	size   int64       // a quote-free body's length
	fields [][]byte
}

// newRecords reads an in-memory body, in place when it is quote-free.
func newRecords(data []byte) *records {
	if bytes.IndexByte(data, '"') >= 0 || bytes.IndexByte(data, '\r') >= 0 {
		return &records{cr: newCSVReader(bytes.NewReader(data))}
	}
	return &records{body: data, size: int64(len(data))}
}

func newCSVReader(r io.Reader) *csv.Reader {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	return cr
}

// next returns the next record — its fields as slices of a quote-free
// body, or as encoding/csv's strings — valid until the following call,
// or io.EOF.
func (s *records) next() ([][]byte, []string, error) {
	if s.cr != nil {
		rec, err := s.cr.Read()
		return nil, rec, err
	}
	for len(s.body) > 0 && s.body[0] == '\n' {
		s.body = s.body[1:]
	}
	if len(s.body) == 0 {
		return nil, nil, io.EOF
	}
	line := s.body
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line, s.body = line[:i], line[i+1:]
	} else {
		s.body = nil
	}
	s.fields = s.fields[:0]
	for {
		i := bytes.IndexByte(line, ',')
		if i < 0 {
			break
		}
		s.fields = append(s.fields, line[:i])
		line = line[i+1:]
	}
	s.fields = append(s.fields, line)
	return s.fields, nil, nil
}

// offset is the number of input bytes consumed so far.
func (s *records) offset() int64 {
	if s.cr != nil {
		return s.cr.InputOffset()
	}
	return s.size - int64(len(s.body))
}

// scanCSV streams a header-first CSV without materializing anything:
// the header callback runs once after validation, then the row
// callback runs per data record, given as records.next gives it. The
// record is reused between calls; callbacks must copy what they keep.
// Every error carries the 1-based line number, counting records (empty
// lines hold none). ReadCSVLimited, ParseCSV and AppendCSV — the only
// CSV parses behind a registration or an append, on either storage
// tier — all run over this, so limits and error texts cannot drift.
func scanCSV(src *records, lim Limits, onHeader func(header []string) error, onRow func(fields [][]byte, strs []string)) error {
	fields, strs, err := src.next()
	if err != nil {
		return fmt.Errorf("relation: reading CSV header: %w", err)
	}
	header := slices.Clone(strs)
	for _, f := range fields {
		header = append(header, string(f))
	}
	if lim.MaxFields > 0 && len(header) > lim.MaxFields {
		return fmt.Errorf("relation: line 1: header has %d fields, limit is %d (after %d bytes)", len(header), lim.MaxFields, src.offset())
	}
	if lim.MaxBytes > 0 && src.offset() > lim.MaxBytes {
		return fmt.Errorf("relation: line 1: byte limit of %d exceeded (header alone is %d bytes)", lim.MaxBytes, src.offset())
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
		fields, strs, err := src.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("relation: reading CSV: %w", err)
		}
		line++
		if lim.MaxRows > 0 && line-1 > lim.MaxRows {
			return fmt.Errorf("relation: line %d: row limit of %d data rows exceeded (after %d bytes)", line, lim.MaxRows, src.offset())
		}
		if lim.MaxBytes > 0 && src.offset() > lim.MaxBytes {
			return fmt.Errorf("relation: line %d: byte limit of %d exceeded (consumed %d bytes)", line, lim.MaxBytes, src.offset())
		}
		if n := len(fields) + len(strs); n != len(header) {
			return fmt.Errorf("relation: line %d has %d fields, header has %d", line, n, len(header))
		}
		onRow(fields, strs)
	}
}

// ReadCSVFile reads a CSV file and parses it with ParseCSV, the split a
// registration takes.
func ReadCSVFile(path string) (*Relation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseCSV(path, data, Limits{})
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
