package fd

import (
	"context"
	"errors"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"structmine/internal/exec"
	"structmine/internal/relation"
)

// FuzzDecodeState: arbitrary bytes never panic DecodeState and fail
// only with ErrCorruptState; whatever decodes survives Encode → Decode
// unchanged. Seeds under testdata/fuzz/: see TestDecodeStateSeeds.
func FuzzDecodeState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeState(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptState) {
				t.Fatalf("DecodeState failed untyped: %v", err)
			}
			return
		}
		again, err := DecodeState(EncodeState(st))
		if err != nil {
			t.Fatalf("re-decoding an encoded state: %v", err)
		}
		if !reflect.DeepEqual(again, st) {
			t.Fatalf("Encode → Decode changed the state:\ngot  %+v\nwant %+v", again, st)
		}
	})
}

// TestDecodeStateSeeds pins what each committed fuzz seed is: one valid
// state, and five inputs that must fail typed — a truncation, fields of
// the wrong JSON types, an FD naming an attribute past the state's
// width, a state 65 attributes wide, and a valid "SMFD" version-2 blob,
// the binary codec daemons before the JSON state left in the cache.
func TestDecodeStateSeeds(t *testing.T) {
	for name, valid := range map[string]bool{
		"valid": true, "truncated": false, "wrong-types": false, "attr-past-width": false, "attrs-65": false, "smfd-v2": false,
	} {
		st, err := DecodeState(seedBytes(t, "FuzzDecodeState", name))
		switch {
		case valid && (err != nil || len(st.FDs) == 0):
			t.Errorf("seed %s: state %+v, err %v; want a state with FDs", name, st, err)
		case !valid && !errors.Is(err, ErrCorruptState):
			t.Errorf("seed %s: err %v, want ErrCorruptState", name, err)
		}
	}
}

// seedBytes reads the []byte argument of a committed fuzz seed.
func seedBytes(t *testing.T, target, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/fuzz/" + target + "/" + name)
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte("), ")")
	blob, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("seed %s/%s: %v", target, name, err)
	}
	return []byte(blob)
}

// groupByRelation spells a small relation from fuzz bytes: the first
// byte picks 1–4 attributes, every later byte one cell from a vocabulary
// of NULL spellings and strings shared across attributes, row after row,
// up to 64 rows.
func groupByRelation(data []byte) *relation.Relation {
	m := 1
	if len(data) > 0 {
		m, data = 1+int(data[0])%4, data[1:]
	}
	attrs := make([]string, m)
	for a := range attrs {
		attrs[a] = "A" + strconv.Itoa(a)
	}
	vocab := []string{"", "NULL", "x", "y", "zz"}
	b := relation.NewBuilder("fuzz", attrs)
	row := make([]string, m)
	for t := 0; t < 64 && len(data) >= m; t++ {
		for a := range row {
			row[a] = vocab[int(data[a])%len(vocab)]
		}
		b.MustAdd(row...)
		data = data[m:]
	}
	return b.Relation()
}

// FuzzGroupBy: on relations the fuzzer spells — NULLs, values shared
// across attributes, duplicate tuples — the kernel's GroupBy, Holds, G3
// and MVDHolds answer every attribute set as the recount of the rendered
// rows does (checkGroupBy), and its Π_R groups are LIMBO's Phase 1 at
// τ = 0 (checkRowGroups). Seeds under testdata/fuzz/FuzzGroupBy/.
func FuzzGroupBy(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := relation.AsColumns(groupByRelation(data))
		checkGroupBy(t, "fuzz", c, attrSetsOf(c.M()))
		checkRowGroups(t, context.Background(), "fuzz", c)
	})
}

// FuzzMineApprox: on relations the fuzzer spells (groupByRelation) and
// any ε — negative, NaN and ±Inf included — and left-hand-side bound,
// the approximate miner reports exactly approxBrute's minimal (X, a)
// with g3Of ≤ ε, Err to the bit. Seeds under testdata/fuzz/FuzzMineApprox/.
func FuzzMineApprox(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, eps float64, maxLHS uint8) {
		r := groupByRelation(data)
		bound := int(maxLHS % 5) // 0 = no bound
		got, err := MineApproxCtx(context.Background(), r, eps, bound)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameApprox(got, approxBrute(r, eps, bound, func(f FD) float64 { return g3Of(r, f) })); d != "" {
			t.Fatalf("eps %v, max LHS %d, %d×%d: %s", eps, bound, r.N(), r.M(), d)
		}
	})
}

// refineLayout spells Π_X classes and their tuples' a-labels from fuzz
// bytes, for labeledInstance: each byte is a run of 1 + (b>>4)&7
// tuples with label b&15, where label 15 gives every tuple of the run
// a value of its own (−1, a Π_A singleton) and the high bit starts a
// new Π_X class. At most 256 bytes are read.
func refineLayout(data []byte) [][]int {
	var classes [][]int
	for i, b := range data[:min(len(data), 256)] {
		if b&0x80 != 0 || i == 0 {
			classes = append(classes, nil)
		}
		l := int(b & 15)
		if l == 15 {
			l = -1
		}
		c := &classes[len(classes)-1]
		for k := 1 + int(b>>4&7); k > 0; k-- {
			*c = append(*c, l)
		}
	}
	return classes
}

// FuzzRefine: on Π_X class layouts the fuzzer spells (refineLayout) —
// runs of shared a-classes, Π_A singletons, a-classes in any order —
// refine emits exactly productSerial's classes, and g3Removed counts
// exactly the tuples a recount of the labels removes, and at least its
// limit when it stops early. One scratch serves both walks. Seeds under
// testdata/fuzz/FuzzRefine/.
func FuzzRefine(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		classes := refineLayout(data)
		px, pa, r := labeledInstance(classes)
		n := r.N()
		ia := classIndex(exec.NewArena(), pa, n)
		sc := &prodScratch{ar: exec.NewArena()}
		if got, want := refine(px, ia, sc), productSerial(px, pa, n); !partitionsEqual(got, want) {
			t.Fatalf("refine = %v %v, productSerial = %v %v", got.elems, got.offs, want.elems, want.offs)
		}
		want := 0
		for _, c := range classes {
			cnt, best := map[int]int{}, 1
			for _, l := range c {
				if l >= 0 {
					cnt[l]++
					best = max(best, cnt[l])
				}
			}
			want += len(c) - best
		}
		if got := g3Removed(px, ia, sc, n+1); got != want {
			t.Fatalf("g3Removed = %d, recount %d", got, want)
		}
		lim := int(limit)
		if got := g3Removed(px, ia, sc, lim); got > want || lim <= want && got < lim || lim > want && got != want {
			t.Fatalf("g3Removed at limit %d = %d, full count %d", lim, got, want)
		}
	})
}

// taneRelation spells a relation of 1–6 attributes from fuzz bytes for
// FuzzTANE: the first byte picks the width, every later byte one cell,
// row after row, up to 64 rows. A byte below 0xC0 is one of four
// values, so rows often agree off any one attribute; the 64 bytes from
// 0xC0 up are values of their own, enough for a key column.
func taneRelation(data []byte) *relation.Relation {
	m := 1
	if len(data) > 0 {
		m, data = 1+int(data[0])%6, data[1:]
	}
	attrs := make([]string, m)
	for a := range attrs {
		attrs[a] = "A" + strconv.Itoa(a)
	}
	b := relation.NewBuilder("fuzz", attrs)
	row := make([]string, m)
	for t := 0; t < 64 && len(data) >= m; t++ {
		for a, c := range data[:m] {
			if c < 0xC0 {
				c %= 4
			}
			row[a] = strconv.Itoa(int(c))
		}
		b.MustAdd(row...)
		data = data[m:]
	}
	return b.Relation()
}

// FuzzTANE: on relations the fuzzer spells (taneRelation) — the walk on
// atoms, on tuples, and switching between them — TANEColumnsCtx at
// worker budgets 1 and 4 returns exactly TANESerial's FDs, which are
// BruteForce's. Seeds under testdata/fuzz/FuzzTANE/: see
// TestTANESeeds.
func FuzzTANE(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := taneRelation(data)
		want, err := TANESerial(r)
		if err != nil {
			t.Fatal(err)
		}
		brute, err := BruteForce(r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, brute) {
			t.Fatalf("%d×%d: reference %v, brute force %v", r.N(), r.M(), want, brute)
		}
		for _, budget := range []int{1, 4} {
			ctx := exec.WithWorkers(context.Background(), budget)
			got, err := TANEColumnsCtx(ctx, NewSets(ctx, relation.AsColumns(r)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d×%d, budget %d: got %v, reference %v", r.N(), r.M(), budget, got, want)
			}
		}
	})
}

// TestTANESeeds pins what each committed FuzzTANE seed is: rows that
// merge off s, so the walk takes atoms ("atoms"); a unique s with rows
// merging off it ("s-key"); two key columns, so no two rows agree off
// s, the first of them ("no-merge"); and two attributes ("m2"). The
// last two stay on tuples.
func TestTANESeeds(t *testing.T) {
	for name, wantS := range map[string]int{"atoms": 1, "s-key": 0, "no-merge": -1, "m2": -1} {
		r := taneRelation(seedBytes(t, "FuzzTANE", name))
		_, tn, err := mineSpace(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if tn.s != wantS {
			t.Errorf("seed %s (%d×%d): s = %d, want %d", name, r.N(), r.M(), tn.s, wantS)
		}
		key := map[string]bool{}
		for u := 0; u < r.N(); u++ {
			key[r.TupleStrings(u)[0]] = true
		}
		if name == "m2" && r.M() != 2 || name == "no-merge" && r.M() < 3 || name == "s-key" && len(key) != r.N() {
			t.Errorf("seed %s (%d×%d) is not what it is named for", name, r.N(), r.M())
		}
	}
}
