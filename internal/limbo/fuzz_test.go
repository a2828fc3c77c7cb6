package limbo

import (
	"context"
	"fmt"
	"math"
	"testing"

	"structmine/internal/it"
)

// groupZeroObjects decodes fuzz bytes into a small object set with
// repeated and permuted conditionals. The first byte picks 1–4 templates
// of 1–4 coordinates; each template is drawn from the bytes that follow,
// and every odd template rotates the previous one's masses over the same
// coordinates, so equal mass multisets on equal supports still differ.
// Every remaining byte is one object: a template, a mass and ADCF counts.
func groupZeroObjects(data []byte) []Obj {
	if len(data) == 0 {
		return nil
	}
	k, s := 1+int(data[0]%4), 1+int(data[0]>>2%4)
	data = data[1:]
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	templates := make([]it.Vec, k)
	for j := range templates {
		es := make([]it.Entry, s)
		if j%2 == 1 {
			prev := templates[j-1]
			for i := range es {
				es[i] = it.Entry{Idx: prev[i%len(prev)].Idx + int32(i/len(prev))*16, P: prev[(i+1)%len(prev)].P}
			}
		} else {
			sum := 0.0
			for i := range es {
				w := float64(1 + next()%4)
				es[i] = it.Entry{Idx: int32(next() % 16), P: w}
				sum += w
			}
			for i := range es {
				es[i].P /= sum
			}
		}
		templates[j] = it.NewVec(es)
	}
	objs := make([]Obj, 0, len(data))
	for i, b := range data {
		objs = append(objs, Obj{
			ID:   int32(i),
			W:    float64(1+b>>4) / 64,
			Cond: templates[int(b)%k],
		})
	}
	return objs
}

// FuzzGroupZero: Phase 1 at τ = 0 groups exactly the objects whose
// conditionals render alike (coordinates and probability bits), numbers
// its groups by first member, and builds every group's DCF bit for bit
// as NewDCF of the first member absorbing the rest in object order. Every
// object is within 1e-12 of its own group (value clustering assigns it
// there at loss 0 without a Phase 3 scan), and where Phase 3 picks
// another group — ulp-neighbour conditionals, the lowest index winning a
// tie — that group is within 1e-12 too. Seeds under testdata/fuzz/.
func FuzzGroupZero(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		objs := groupZeroObjects(data)
		leaves, leafOf := Phase1Ctx(context.Background(), objs, 0, 4)
		if len(leafOf) != len(objs) {
			t.Fatalf("%d objects, %d memberships", len(objs), len(leafOf))
		}
		groupOf := map[string]int32{}
		members := make([][]int, len(leaves))
		for i, o := range objs {
			key := ""
			for _, e := range o.Cond {
				key += fmt.Sprintf("%d:%x ", e.Idx, math.Float64bits(e.P))
			}
			g, ok := groupOf[key]
			if !ok {
				g = int32(len(groupOf)) // first-member order
				groupOf[key] = g
			}
			if leafOf[i] != g {
				t.Fatalf("object %d is in leaf %d, its rendered conditional in group %d", i, leafOf[i], g)
			}
			members[g] = append(members[g], i)
		}
		if len(groupOf) != len(leaves) {
			t.Fatalf("%d leaves for %d distinct conditionals", len(leaves), len(groupOf))
		}
		for g, ms := range members {
			want := NewDCF(objs[ms[0]])
			for _, i := range ms[1:] {
				want.AbsorbObj(objs[i])
			}
			if err := sameDCF(leaves[g], want); err != nil {
				t.Fatalf("leaf %d differs from NewDCF + AbsorbObj over its members %v: %v", g, ms, err)
			}
			if err := validDCF(leaves[g]); err != nil {
				t.Fatalf("leaf %d: %v", g, err)
			}
		}
		for i, a := range AssignCtx(context.Background(), leaves, objs) {
			if own := leaves[leafOf[i]].DeltaIObj(objs[i]); !(own <= 1e-12) {
				t.Fatalf("object %d is %v from its own group %d", i, own, leafOf[i])
			}
			if a.Cluster != int(leafOf[i]) && !(a.Loss <= 1e-12) {
				t.Fatalf("Phase 3 moves object %d from group %d to %d at loss %v", i, leafOf[i], a.Cluster, a.Loss)
			}
		}
	})
}
