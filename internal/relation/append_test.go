package relation

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
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
	if !sameRelation(got, want) {
		t.Fatalf("extended relation differs from concatenated parse:\ngot  %+v\nwant %+v", got, want)
	}
}

// sameRelation reports whether two relations are the same instance down
// to the unexported tables — rows, value ids, id-ordered dictionary — and
// resolve every string to the same id. How the string → id maps are laid
// out (one base, or a shared base under an overlay) is not compared.
func sameRelation(a, b *Relation) bool {
	if a.Name != b.Name || !reflect.DeepEqual(a.Attrs, b.Attrs) || !reflect.DeepEqual(a.rows, b.rows) ||
		!reflect.DeepEqual(a.valueStr, b.valueStr) || !reflect.DeepEqual(a.valueAttr, b.valueAttr) {
		return false
	}
	for _, r := range []*Relation{a, b} {
		for id, s := range r.valueStr {
			if got, ok := r.ValueID(r.valueAttr[id], s); !ok || got != int32(id) {
				return false
			}
		}
		for attr := range r.Attrs {
			if _, ok := r.ValueID(attr, "\x00 no such value"); ok || a.DomainSize(attr) != b.DomainSize(attr) {
				return false
			}
		}
	}
	return true
}

// TestExtendChainFoldsOverlay walks a long chain of small appends — the
// overlay is copied forward, outgrows half its base and is folded, many
// times over — and holds every link to the parse of the same rows.
func TestExtendChainFoldsOverlay(t *testing.T) {
	src := appendBase
	rel, err := ReadCSV("ds", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	folds := 0
	for i := 0; i < 40; i++ {
		row := []string{fmt.Sprint(i % 7), fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i/3)}
		src += strings.Join(row, ",") + "\n"
		prev := rel
		if rel, err = rel.Extend([][]string{row}); err != nil {
			t.Fatal(err)
		}
		if &rel.dict[0] != &prev.dict[0] {
			folds++
		}
		want, err := ReadCSV("ds", strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		if !sameRelation(rel, want) {
			t.Fatalf("after %d appends:\ngot  %+v\nwant %+v", i+1, rel, want)
		}
	}
	if folds == 0 || folds > 10 {
		t.Fatalf("%d folds over 40 one-row appends, want a few (geometric growth)", folds)
	}
}

// TestExtendConcurrentReaders: readers of a relation — and of the
// extensions that share its dictionary — run while it is being extended
// (go test -race), and see what they saw before.
func TestExtendConcurrentReaders(t *testing.T) {
	base, err := ReadCSV("ds", strings.NewReader(appendBase))
	if err != nil {
		t.Fatal(err)
	}
	mid, err := base.Extend([][]string{{"7", "x", "fresh"}})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, r := range []*Relation{base, mid} {
		n, d, dom := r.N(), r.D(), r.DomainSize(2)
		_, hadFresh := r.ValueID(2, "fresh")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, fresh := r.ValueID(2, "fresh")
				_, later := r.ValueID(1, "later")
				if r.N() != n || r.D() != d || r.DomainSize(2) != dom || fresh != hadFresh || later ||
					r.NullFraction(0) != 1/float64(n) || AsColumns(r).NullCount(0) != 1 {
					t.Errorf("a reader's view changed under Extend")
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		for _, r := range []*Relation{base, mid} {
			ext, err := r.Extend([][]string{{"8", "later", fmt.Sprintf("c%d", i)}, {"", "later", "p"}})
			if err != nil || ext.N() != r.N()+2 {
				t.Fatalf("extend: n=%d err=%v", ext.N(), err)
			}
		}
	}
	close(stop)
	wg.Wait()
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
