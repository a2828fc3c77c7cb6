package relation_test

import (
	"context"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"structmine/internal/fd"
	"structmine/internal/relation"
)

// The projection counts of a relation — the multiplicity of each
// distinct projected row, and so the distinct-row count n' of RTR — come
// from the group-by of fd.Sets, the one kernel over attribute sets. These tests hold
// it to the relation package's contract for projections.

func TestProjectionCounts(t *testing.T) {
	b := relation.NewBuilder("fig4", []string{"A", "B", "C"})
	b.MustAdd("a", "1", "p")
	b.MustAdd("a", "1", "r")
	b.MustAdd("w", "2", "x")
	b.MustAdd("y", "2", "x")
	b.MustAdd("z", "2", "x")
	c := relation.AsColumns(b.Relation())
	first, count, err := fd.NewSets(context.Background(), c).GroupBy([]int{1}) // B: 1 appears 2x, then 2 appears 3x
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, []int{0, 2}) || !reflect.DeepEqual(count, []int{2, 3}) {
		t.Fatalf("first %v, counts %v", first, count)
	}
}

// Property: the distinct rows over all attributes never exceed N, and
// the projection counts always sum to N.
func TestPropProjectionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(4)
		attrs := make([]string, m)
		for i := range attrs {
			attrs[i] = "A" + strconv.Itoa(i)
		}
		b := relation.NewBuilder("rand", attrs)
		n := 1 + r.Intn(30)
		row := make([]string, m)
		for i := 0; i < n; i++ {
			for j := range row {
				row[j] = strconv.Itoa(r.Intn(4))
			}
			if err := b.Add(row); err != nil {
				return false
			}
		}
		rel := b.Relation()
		c := relation.AsColumns(rel)
		first, count, err := fd.NewSets(context.Background(), c).GroupBy(relation.AllAttrs(c))
		if err != nil || len(first) != len(count) || len(first) > rel.N() {
			return false
		}
		sum := 0
		for _, c := range count {
			sum += c
		}
		return sum == rel.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
