package fd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"structmine/internal/relation"
)

func TestKeysFig4(t *testing.T) {
	keys, err := KeysColumns(relation.AsColumns(fig4(t)))
	if err != nil {
		t.Fatal(err)
	}
	// Rows: (a,1,p),(a,1,r),(w,2,x),(y,2,x),(z,2,x). A alone is not a key
	// (a repeats); {A,C} is: all five (A,C) pairs are distinct.
	hasAC := false
	for _, k := range keys {
		if k == NewAttrSet(0, 2) {
			hasAC = true
		}
		if k == NewAttrSet(0) {
			t.Fatal("A alone is not a key (value a repeats)")
		}
	}
	if !hasAC {
		t.Fatalf("missing key {A,C}: %v", keys)
	}
}

func TestKeysSingleColumnKey(t *testing.T) {
	r := rel(t, []string{"Id", "Name"},
		[]string{"1", "x"}, []string{"2", "x"}, []string{"3", "y"},
	)
	keys, err := KeysColumns(relation.AsColumns(r))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != NewAttrSet(0) {
		t.Fatalf("keys %v, want exactly {Id}", keys)
	}
}

func TestKeysWithExactDuplicates(t *testing.T) {
	r := rel(t, []string{"A", "B"},
		[]string{"x", "1"}, []string{"x", "1"},
	)
	keys, err := KeysColumns(relation.AsColumns(r))
	if err != nil {
		t.Fatal(err)
	}
	if keys != nil {
		t.Fatalf("duplicated rows admit no key, got %v", keys)
	}
}

func TestKeysDegenerate(t *testing.T) {
	single := rel(t, []string{"A"}, []string{"x"})
	keys, err := KeysColumns(relation.AsColumns(single))
	if err != nil || len(keys) != 1 || !keys[0].Empty() {
		t.Fatalf("single row: %v %v", keys, err)
	}
	empty := relation.NewBuilder("e", []string{"A"}).Relation()
	keys, err = KeysColumns(relation.AsColumns(empty))
	if err != nil || len(keys) != 1 || !keys[0].Empty() {
		t.Fatalf("empty: %v %v", keys, err)
	}
}

// Property: every reported key is a unique projection, and dropping any
// attribute breaks uniqueness (minimality).
func TestPropKeysMinimalAndUnique(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, 2+rng.Intn(25), 2+rng.Intn(4), 3)
		keys, err := KeysColumns(relation.AsColumns(r))
		if err != nil {
			return false
		}
		for _, k := range keys {
			if r.DistinctRows(k.Attrs()) != r.N() {
				return false
			}
			for _, a := range k.Attrs() {
				if r.DistinctRows(k.Remove(a).Attrs()) == r.N() {
					return false
				}
			}
		}
		// Completeness spot check: if some single attribute is unique,
		// it must be listed.
		for a := 0; a < r.M(); a++ {
			if r.DistinctRows([]int{a}) == r.N() {
				found := false
				for _, k := range keys {
					if k == NewAttrSet(a) {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
