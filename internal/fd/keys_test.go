package fd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"structmine/internal/datagen"
	"structmine/internal/relation"
)

// taneFDs is TANE's minimal FD set over r, the set Keys reads keys off.
func taneFDs(t testing.TB, r *relation.Relation) []FD {
	t.Helper()
	fds, err := mineTANE(r)
	if err != nil {
		t.Fatal(err)
	}
	return fds
}

func TestKeysFig4(t *testing.T) {
	keys, err := setsOf(fig4(t)).Keys(taneFDs(t, fig4(t)))
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
	keys, err := setsOf(r).Keys(taneFDs(t, r))
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
	keys, err := setsOf(r).Keys(taneFDs(t, r))
	if err != nil {
		t.Fatal(err)
	}
	if keys != nil {
		t.Fatalf("duplicated rows admit no key, got %v", keys)
	}
}

func TestKeysDegenerate(t *testing.T) {
	single := rel(t, []string{"A"}, []string{"x"})
	keys, err := setsOf(single).Keys(taneFDs(t, single))
	if err != nil || len(keys) != 1 || !keys[0].Empty() {
		t.Fatalf("single row: %v %v", keys, err)
	}
	empty := relation.NewBuilder("e", []string{"A"}).Relation()
	keys, err = setsOf(empty).Keys(taneFDs(t, empty))
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
		keys, err := setsOf(r).Keys(taneFDs(t, r))
		if err != nil {
			return false
		}
		for _, k := range keys {
			if distinctOf(t, r, k.Attrs()) != r.N() {
				return false
			}
			for _, a := range k.Attrs() {
				if distinctOf(t, r, k.Remove(a).Attrs()) == r.N() {
					return false
				}
			}
		}
		// Completeness spot check: if some single attribute is unique,
		// it must be listed.
		for a := 0; a < r.M(); a++ {
			if distinctOf(t, r, []int{a}) == r.N() {
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

// keysByAgreeSets is the pairwise oracle: X is a superkey iff no pair of
// distinct rows agrees on all of X, i.e. X hits the complement of every
// maximal agree set, so the minimal keys are exactly the minimal
// transversals of those complements (the machinery FDEP uses for
// minimal left-hand sides). It is quadratic in the number of distinct
// rows.
func keysByAgreeSets(s *Sets) ([]AttrSet, error) {
	n, m := s.c.N(), s.c.M()
	if m > MaxAttrs {
		return nil, fmt.Errorf("fd: relation has %d attributes, max %d", m, MaxAttrs)
	}
	if m == 0 {
		return nil, nil
	}
	if n <= 1 {
		return []AttrSet{0}, nil // the empty set identifies ≤1 tuple
	}
	rows, err := s.distinctRows()
	if err != nil {
		return nil, err
	}
	if len(rows) < n {
		// Exact duplicate tuples exist: no attribute set can tell them
		// apart, so the instance has no key at all.
		return nil, nil
	}
	agree := maximalSets(agreeSets(rows, m))
	full := FullSet(m)
	family := make([]AttrSet, len(agree))
	for i, ag := range agree {
		family[i] = full.Minus(ag)
	}
	keys := minimalTransversals(family)
	sort.Slice(keys, func(i, j int) bool {
		if c1, c2 := keys[i].Count(), keys[j].Count(); c1 != c2 {
			return c1 < c2
		}
		return keys[i] < keys[j]
	})
	return keys, nil
}

// keysBySubsets is the oracle that shares nothing with either
// algorithm: it walks every subset X of R by size, then bit pattern,
// and keeps X when its projection has n distinct rows and no key found
// so far lies inside it.
func keysBySubsets(t testing.TB, r *relation.Relation) []AttrSet {
	var keys []AttrSet
	for size := 0; size <= r.M(); size++ {
		for x := AttrSet(0); x <= FullSet(r.M()); x++ {
			if x.Count() != size || slices.ContainsFunc(keys, func(k AttrSet) bool { return k.SubsetOf(x) }) {
				continue
			}
			if distinctOf(t, r, x.Attrs()) == r.N() {
				keys = append(keys, x)
			}
		}
	}
	return keys
}

// withColumns returns r with len(names) attributes put in front, the
// value of the i-th at tuple t being vals(t)[i].
func withColumns(t testing.TB, r *relation.Relation, names []string, vals func(t int) []string) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder(r.Name, append(slices.Clone(names), r.Attrs...))
	for i := 0; i < r.N(); i++ {
		if err := b.Add(append(vals(i), r.TupleStrings(i)...)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Relation()
}

// checkKeys holds Keys over three FD inputs on r — TANE's minimal FDs,
// their MinCover, and the FD state the delta path leaves after the last
// fifth of r's rows is appended to the rest — to keysByAgreeSets,
// element for element, and the oracle to keysBySubsets for m ≤ 6.
func checkKeys(t *testing.T, where string, r *relation.Relation) {
	t.Helper()
	want, err := keysByAgreeSets(setsOf(r))
	if err != nil {
		t.Fatal(err)
	}
	if r.M() <= 6 {
		if brute := keysBySubsets(t, r); !slices.Equal(brute, want) {
			t.Fatalf("%s: agree-set oracle %v, subset enumeration %v", where, want, brute)
		}
	}
	check := func(input string, r *relation.Relation, fds []FD) {
		t.Helper()
		got, err := setsOf(r).Keys(fds)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%s: keys %v, agree sets say %v", where, input, got, want)
		}
	}
	fds := taneFDs(t, r)
	check("tane", r, fds)
	check("mincover", r, MinCover(fds))
	if n := r.N(); n >= 2 {
		k := max(1, n/5)
		prefix := make([]int, n-k)
		for i := range prefix {
			prefix[i] = i
		}
		rows := make([][]string, k)
		for i := range rows {
			rows[i] = r.TupleStrings(n - k + i)
		}
		base := r.Select(prefix)
		ext, err := base.Extend(rows)
		if err != nil {
			t.Fatal(err)
		}
		_, next, _, err := DiscoverDelta(context.Background(), ext, stateOver(base, mustDiscover(t, base)))
		if err != nil {
			t.Fatal(err)
		}
		check("delta", ext, next.FDs)
	}
}

// TestKeysMatchAgreeSets is the oracle of the key search: on random
// relations (duplicate tuples, n ≤ 1, constant columns), the DB2 joined
// sample, DBLP 2 000 × 13, and DBLP with a unique id and with a
// two-column composite key put in front, Keys gives keysByAgreeSets'
// answer in the same order from every FD input checkKeys feeds it.
func TestKeysMatchAgreeSets(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, rng.Intn(30), 1+rng.Intn(5), 1+rng.Intn(6))
		if seed%4 == 0 {
			r = withColumns(t, r, []string{"K"}, func(int) []string { return []string{"k"} })
		}
		checkKeys(t, fmt.Sprintf("random/seed=%d", seed), r)
	}
	db2, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	checkKeys(t, "db2", db2.Joined)
	d := dblp(2000, 1)
	checkKeys(t, "dblp-2000", d)
	checkKeys(t, "dblp-2000+id", withColumns(t, d, []string{"Id"}, func(i int) []string {
		return []string{strconv.Itoa(i)}
	}))
	checkKeys(t, "dblp-2000+hi,lo", withColumns(t, d, []string{"Hi", "Lo"}, func(i int) []string {
		return []string{strconv.Itoa(i / 40), strconv.Itoa(i % 40)}
	}))
}

// TestKeysCanceled: Keys checks the job's context once per key it
// expands, so a canceled job gets context.Canceled back instead of the
// DB2 sample's 108 keys.
func TestKeysCanceled(t *testing.T) {
	db2, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	r := db2.Joined
	fds := taneFDs(t, r)
	if keys, err := setsOf(r).Keys(fds); err != nil || len(keys) != 108 {
		t.Fatalf("db2: %d keys, err %v; want 108", len(keys), err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if keys, err := NewSets(ctx, relation.AsColumns(r)).Keys(fds); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled: %d keys, err %v; want context.Canceled", len(keys), err)
	}
}
