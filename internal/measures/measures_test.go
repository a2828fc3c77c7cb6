package measures

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"structmine/internal/fd"
	"structmine/internal/relation"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func build(t *testing.T, attrs []string, rows ...[]string) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder("m", attrs)
	for _, r := range rows {
		if err := b.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return b.Relation()
}

func TestRADConstantProjectionIsOne(t *testing.T) {
	// Table 5's all-NULL attributes: constant projection → RAD = 1.
	r := build(t, []string{"Volume", "Journal"},
		[]string{"NULL", "NULL"}, []string{"NULL", "NULL"}, []string{"NULL", "NULL"},
	)
	if got := RAD(r, []int{0, 1}); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("RAD constant = %v", got)
	}
	if got := RTR(r, []int{0, 1}); !almostEqual(got, 1-1.0/3, 1e-12) {
		t.Fatalf("RTR constant = %v, want 2/3", got)
	}
}

func TestRADAllDistinctIsZero(t *testing.T) {
	r := build(t, []string{"K"},
		[]string{"a"}, []string{"b"}, []string{"c"}, []string{"d"},
	)
	if got := RAD(r, []int{0}); !almostEqual(got, 0, 1e-12) {
		t.Fatalf("RAD distinct = %v", got)
	}
	if got := RTR(r, []int{0}); !almostEqual(got, 0, 1e-12) {
		t.Fatalf("RTR distinct = %v", got)
	}
}

func TestRADSkewBeatsUniform(t *testing.T) {
	skew := build(t, []string{"A"},
		[]string{"x"}, []string{"x"}, []string{"x"}, []string{"y"},
	)
	uniform := build(t, []string{"A"},
		[]string{"x"}, []string{"x"}, []string{"y"}, []string{"y"},
	)
	if RAD(skew, []int{0}) <= RAD(uniform, []int{0}) {
		t.Fatal("skewed distribution should have higher RAD")
	}
	// Same distinct count → same RTR.
	if !almostEqual(RTR(skew, []int{0}), RTR(uniform, []int{0}), 1e-12) {
		t.Fatal("RTR should agree for equal distinct counts")
	}
}

func TestRADWeightedWidthSensitivity(t *testing.T) {
	r := build(t, []string{"A", "B", "C", "D"},
		[]string{"x", "1", "p", "q"},
		[]string{"x", "1", "r", "s"},
		[]string{"x", "1", "t", "u"},
	)
	// Projection on {A} and on {A,B} are both constant: plain RAD ties,
	// weighted RAD must also tie at 1 (entropy 0). Use a non-constant
	// group: {C} has 3 distinct rows → H = log2 3.
	plain := RAD(r, []int{2})
	ms, _ := OfSets(fd.NewSets(context.Background(), relation.AsColumns(r)), []int{2})
	if weighted := ms.RADw; weighted <= plain {
		t.Fatalf("weighted (%v) should exceed plain (%v): entropy scaled by 1/4", weighted, plain)
	}
}

func TestMeasuresEdgeCases(t *testing.T) {
	empty := relation.NewBuilder("e", []string{"A"}).Relation()
	if ms, _ := OfSets(fd.NewSets(context.Background(), relation.AsColumns(empty)), []int{0}); ms != (Measures{}) {
		t.Fatal("empty relation should measure 0")
	}
	one := build(t, []string{"A"}, []string{"x"})
	if RAD(one, []int{0}) != 0 {
		t.Fatal("single tuple RAD should be 0 (no duplication possible)")
	}
	r := build(t, []string{"A"}, []string{"x"}, []string{"y"})
	if RAD(r, nil) != 0 || RTR(r, nil) != 0 {
		t.Fatal("empty attribute group should measure 0")
	}
}

// Property: both measures stay in [0,1], and projecting on MORE
// attributes never increases either measure (finer projection ⇒ less
// duplication).
func TestPropMeasureMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(3)
		attrs := make([]string, m)
		for i := range attrs {
			attrs[i] = "A" + strconv.Itoa(i)
		}
		b := relation.NewBuilder("rand", attrs)
		n := 2 + rng.Intn(40)
		row := make([]string, m)
		for i := 0; i < n; i++ {
			for j := range row {
				row[j] = strconv.Itoa(rng.Intn(3))
			}
			if err := b.Add(row); err != nil {
				return false
			}
		}
		r := b.Relation()
		small := []int{0}
		big := make([]int, m)
		for i := range big {
			big[i] = i
		}
		rs, rb := RAD(r, small), RAD(r, big)
		ts, tb := RTR(r, small), RTR(r, big)
		inRange := func(x float64) bool { return x >= -1e-9 && x <= 1+1e-9 }
		if !inRange(rs) || !inRange(rb) || !inRange(ts) || !inRange(tb) {
			return false
		}
		return rb <= rs+1e-9 && tb <= ts+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
