package it_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"structmine/internal/datagen"
	"structmine/internal/it"
	"structmine/internal/relation"
)

// tupleJoint is the tuple representation of §4 — p(t) = 1/n, p(V|t)
// uniform over the row's values — and valueJoint its transpose, each
// value's conditional uniform over the tuples holding it.
func tupleJoint(r *relation.Relation) *it.JointDist {
	j := &it.JointDist{}
	for t := 0; t < r.N(); t++ {
		j.PX = append(j.PX, 1/float64(r.N()))
		j.CondT = append(j.CondT, it.Uniform(r.Row(t)))
	}
	return j
}

func valueJoint(r *relation.Relation) *it.JointDist {
	holders := map[int32][]int32{}
	var order []int32
	for t := 0; t < r.N(); t++ {
		for _, v := range r.Row(t) {
			if holders[v] == nil {
				order = append(order, v)
			}
			holders[v] = append(holders[v], int32(t))
		}
	}
	j := &it.JointDist{}
	for _, v := range order {
		j.PX = append(j.PX, float64(len(holders[v]))/float64(r.N()*r.M()))
		j.CondT = append(j.CondT, it.Uniform(holders[v]))
	}
	return j
}

// randomJoint mixes random conditionals over ids in [0, span), some rows
// with zero or negative prior (skipped by both paths).
func randomJoint(r *rand.Rand, rows, span int) *it.JointDist {
	j := &it.JointDist{}
	for i := 0; i < rows; i++ {
		es := make([]it.Entry, 1+r.Intn(6))
		for k := range es {
			es[k] = it.Entry{Idx: int32(r.Intn(span)), P: r.Float64()}
		}
		v := it.NewVec(es)
		sum := v.Sum()
		for k := range v {
			v[k].P /= sum
		}
		px := r.Float64()
		if i%17 == 0 {
			px = -px * float64(i%2)
		}
		j.PX = append(j.PX, px)
		j.CondT = append(j.CondT, v)
	}
	return j
}

// MarginalEntropyT's dense accumulator must give the map path's bits:
// same per-coordinate order, same ascending final sum.
func TestMarginalEntropyDenseMatchesMap(t *testing.T) {
	cases := map[string]*it.JointDist{}
	r := rand.New(rand.NewSource(8))
	for i, span := range []int{4, 64, 1000, 1 << 20} {
		cases[fmt.Sprintf("random-%d-span-%d", i, span)] = randomJoint(r, 50+r.Intn(200), span)
	}
	dblp := datagen.NewDBLP(datagen.DBLPConfig{Tuples: 2000, Seed: 1})
	proj := datagen.NewDBLP(datagen.DBLPConfig{Tuples: 5200, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28}).Project(datagen.ProjectionAttrs())
	for name, rel := range map[string]*relation.Relation{"dblp-2000x13": dblp, "dblp-5200x7": proj} {
		cases[name+"/tuples"] = tupleJoint(rel)
		cases[name+"/values"] = valueJoint(rel)
	}
	for name, j := range cases {
		got, want := j.MarginalEntropyT(), j.MarginalEntropyMap()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: H(T) = %v dense, %v map", name, got, want)
		}
	}
}

// TestNHMatchesPLogPOnDBLP: on every attribute of DBLP 50 000 × 13, the
// marginal entropy NH/n agrees with −Σ p·log₂p over the same value
// counts to 1e-12 relative.
func TestNHMatchesPLogPOnDBLP(t *testing.T) {
	c := relation.AsColumns(datagen.NewDBLP(datagen.DBLPConfig{Tuples: 50000, Seed: 1}))
	for a := 0; a < c.M(); a++ {
		var counts []int
		if err := c.VisitValues(a, nil, func(_ int32, count int, _ []relation.Run) error {
			counts = append(counts, count)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for _, k := range counts {
			p := float64(k) / float64(c.N())
			want -= p * math.Log2(p)
		}
		if got := it.NH(c.N(), counts) / float64(c.N()); math.Abs(got-want) > 1e-12*want {
			t.Errorf("attribute %d: NH/n = %v, −Σ p·log₂p = %v", a, got, want)
		}
	}
}
