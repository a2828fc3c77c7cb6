package relation

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

const appendBase = "A,B,C\n1,x,p\n2,y,q\n3,x,p\n,z,q\n"

// TestExtendMatchesConcatenatedParse pins the append invariant the whole
// incremental-mining stack rests on: extending a parsed relation with
// rows yields exactly the relation a fresh parse of the concatenated
// source would, including value-id assignment (first-appearance order is
// append-stable).
func TestExtendMatchesConcatenatedParse(t *testing.T) {
	tail := "4,x,r\n2,y,\n5,w,p\n"
	base, err := ReadCSV("ds", strings.NewReader(appendBase))
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := AppendCSV(base, []byte("A,B,C\n"+tail), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("appended %d rows, want 3", n)
	}
	want, err := ReadCSV("ds", strings.NewReader(appendBase+tail))
	if err != nil {
		t.Fatal(err)
	}
	// DeepEqual sees the unexported tables: rows, dictionary, value ids.
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("extended relation differs from concatenated parse:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestExtendLeavesReceiverUntouched checks copy-on-append: the original
// relation is unchanged, so concurrent readers keep a consistent view.
func TestExtendLeavesReceiverUntouched(t *testing.T) {
	base, err := ReadCSV("ds", strings.NewReader(appendBase))
	if err != nil {
		t.Fatal(err)
	}
	n, d := base.N(), base.D()
	ext, err := base.Extend([][]string{{"9", "new", "new"}})
	if err != nil {
		t.Fatal(err)
	}
	if base.N() != n || base.D() != d {
		t.Fatalf("receiver mutated: n %d→%d, d %d→%d", n, base.N(), d, base.D())
	}
	if ext.N() != n+1 || ext.D() <= d {
		t.Fatalf("extension wrong shape: n=%d d=%d", ext.N(), ext.D())
	}
	// The shared prefix really is shared (ids stable) and new ids extend it.
	for a := 0; a < base.M(); a++ {
		for tt := 0; tt < n; tt++ {
			if base.Value(tt, a) != ext.Value(tt, a) {
				t.Fatalf("value id drifted at (%d,%d)", tt, a)
			}
		}
	}
}

func TestAppendCSVShapeMismatch(t *testing.T) {
	base, err := ReadCSV("ds", strings.NewReader(appendBase))
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{"A,B\n1,x\n", "A,B,D\n1,x,p\n", "B,A,C\n1,x,p\n"} {
		if _, _, err := AppendCSV(base, []byte(body), Limits{}); !errors.Is(err, ErrShapeMismatch) {
			t.Fatalf("body %q: got %v, want ErrShapeMismatch", body, err)
		}
	}
	// Ragged rows surface the parser's own field-count error, not a panic.
	if _, _, err := AppendCSV(base, []byte("A,B,C\n1,x\n"), Limits{}); err == nil {
		t.Fatal("ragged appended row accepted")
	}
}
