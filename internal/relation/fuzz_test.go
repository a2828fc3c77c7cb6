package relation

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// The two targets below fuzz the only CSV parser behind a registration
// (ReadCSVLimited) and an append (AppendCSV) — on either storage tier,
// since colstore encodes what this package parsed. Seeds live under
// testdata/fuzz/: the server's contract CSV, a quoted newline, empty
// cells, a duplicate header, a ragged row, a lone header.

// holdsCR reports whether an attribute name or a value contains a
// carriage return. encoding/csv folds "\r\n" inside a quoted field to
// "\n" when reading (and drops a "\r" before end of input), so such a
// string does not survive being written and read back; the round-trip
// properties are claimed for everything else.
func holdsCR(r *Relation) bool {
	for _, list := range [][]string{r.Attrs, r.valueStr} {
		for _, s := range list {
			if strings.ContainsRune(s, '\r') {
				return true
			}
		}
	}
	return false
}

func csvBytes(t *testing.T, r *Relation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return buf.Bytes()
}

// FuzzReadCSV: the parser never panics; Limits are honoured — a limited
// parse that succeeds is within every limit and equals the unlimited
// one, and input within every limit is not refused for them; and
// WriteCSV → ReadCSV reproduces the relation exactly: rows, value ids,
// ValueString, ValueAttr, dictionary.
func FuzzReadCSV(f *testing.F) {
	lim := Limits{MaxRows: 6, MaxFields: 4, MaxBytes: 96}
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, err := ReadCSV("fuzz", bytes.NewReader(data))
		limited, lerr := ReadCSVLimited("fuzz", bytes.NewReader(data), lim)
		if lerr == nil {
			if limited.N() > lim.MaxRows || limited.M() > lim.MaxFields {
				t.Fatalf("limits %+v admitted %d rows × %d fields", lim, limited.N(), limited.M())
			}
			if err != nil || !reflect.DeepEqual(limited, rel) {
				t.Fatalf("limited parse succeeded but differs from the unlimited one (%v)", err)
			}
		} else if err == nil && rel.N() <= lim.MaxRows && rel.M() <= lim.MaxFields && int64(len(data)) <= lim.MaxBytes {
			t.Fatalf("input within %+v refused: %v", lim, lerr)
		}
		if err != nil || holdsCR(rel) {
			return
		}
		for id := int32(0); id < int32(rel.D()); id++ {
			if back, ok := rel.ValueID(rel.ValueAttr(id), rel.ValueString(id)); !ok || back != id {
				t.Fatalf("value %d (%q of attribute %d) looks up as %d, %v", id, rel.ValueString(id), rel.ValueAttr(id), back, ok)
			}
		}
		again, err := ReadCSV("fuzz", bytes.NewReader(csvBytes(t, rel)))
		if err != nil {
			t.Fatalf("re-reading WriteCSV output: %v", err)
		}
		if !reflect.DeepEqual(again, rel) {
			t.Fatalf("WriteCSV → ReadCSV changed the relation:\ngot  %+v\nwant %+v", again, rel)
		}
	})
}

// FuzzAppendCSV: for a CSV a and further rows b, AppendCSV(ReadCSV(a),
// header + b) succeeds exactly when ReadCSV(a + b) does and yields the
// same relation — ids included — while a body under any other header
// fails with ErrShapeMismatch; in every case the receiver is untouched.
func FuzzAppendCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if !bytes.HasSuffix(a, []byte("\n")) {
			a = append(a[:len(a):len(a)], '\n')
		}
		base, err := ReadCSV("fuzz", bytes.NewReader(a))
		if err != nil || holdsCR(base) {
			return
		}
		pristine, _ := ReadCSV("fuzz", bytes.NewReader(a))
		header := func(attrs []string) []byte { return csvBytes(t, NewBuilder("", attrs).Relation()) }

		got, n, aerr := AppendCSV(base, append(header(base.Attrs), b...), Limits{})
		want, werr := ReadCSV("fuzz", bytes.NewReader(append(a[:len(a):len(a)], b...)))
		if (aerr == nil) != (werr == nil) {
			t.Fatalf("append: %v, parse of the concatenation: %v", aerr, werr)
		}
		if aerr == nil && (n != want.N()-base.N() || !sameRelation(got, want)) {
			t.Fatalf("appended %d rows:\ngot  %+v\nwant %+v", n, got, want)
		}

		// One more column, under a name no attribute has.
		wider := append(base.Attrs[:base.M():base.M()], strings.Join(base.Attrs, "")+"x")
		if _, _, err := AppendCSV(base, append(header(wider), b...), Limits{}); !errors.Is(err, ErrShapeMismatch) {
			t.Fatalf("body under header %q: %v, want ErrShapeMismatch", wider, err)
		}
		if !reflect.DeepEqual(base, pristine) {
			t.Fatalf("AppendCSV modified its receiver:\ngot  %+v\nwant %+v", base, pristine)
		}
	})
}

// FuzzParseCSV: ParseCSV, which splits a quote-free body in place, and
// ReadCSVLimited over the same bytes, which always reads them with
// encoding/csv, give reflect.DeepEqual relations or the same error
// text, under any limits. The seeds are the cases the in-place split
// must read as encoding/csv does: empty lines anywhere, no final
// newline, a lone header, a quote or a "\r" that sends the body to
// encoding/csv, an empty field in a one-column CSV, a ragged row, and
// each limit at and one below the input's own size.
func FuzzParseCSV(f *testing.F) {
	const body = "A,B\n1,\n\n2,x\n"
	for _, s := range []string{
		"\n\nA,B\n1,2\n", "A,B\n\n\n1,2\n\n3,4\n", "A,B\n1,2\n\n\n", "A,B\n1,2",
		"A,B\n", "A,B", "A,B\n1,2\n3,\"4\"\n", "A,B\r\n1,2\r\n", "A,B\n1,2\r",
		"A\n\n1\n,\n\"\"\n", "A\n1\n\n2\n", "A,B\n1,2,3\n", "A,B\n1\n", "",
	} {
		f.Add([]byte(s), uint8(0), uint8(0), uint16(0))
	}
	for _, k := range []int{0, 1} {
		f.Add([]byte(body), uint8(3-k), uint8(0), uint16(0))                // MaxRows
		f.Add([]byte(body), uint8(0), uint8(2-k), uint16(0))                // MaxFields
		f.Add([]byte(body), uint8(0), uint8(0), uint16(len(body)-k))        // MaxBytes
		f.Add([]byte(body), uint8(0), uint8(0), uint16(len("A,B\n")-k))     // the header's bytes
		f.Add([]byte(body), uint8(0), uint8(0), uint16(len("A,B\n1,\n")-k)) // the first row's
	}
	f.Fuzz(func(t *testing.T, data []byte, rows, fields uint8, maxBytes uint16) {
		lim := Limits{MaxRows: int(rows), MaxFields: int(fields), MaxBytes: int64(maxBytes)}
		got, err := ParseCSV("fuzz", data, lim)
		want, werr := ReadCSVLimited("fuzz", bytes.NewReader(data), lim)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("ParseCSV: %v\nencoding/csv: %v", err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseCSV and encoding/csv disagree:\ngot  %+v\nwant %+v", got, want)
		}
	})
}
