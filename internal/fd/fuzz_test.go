package fd

import (
	"context"
	"errors"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

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
