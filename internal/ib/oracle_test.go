package ib

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"structmine/internal/exec"
	"structmine/internal/it"
)

// Exported to the external test in greedy_test.go, whose inputs come
// from packages that import ib (datagen, task, tuples).
var (
	CheckGreedyOnEquation3 = checkGreedyOnEquation3
	DecodeObjects          = decodeObjects
)

// checkGreedyOnEquation3 holds a merge sequence to equation (3) as an
// oracle that ignores how ties broke. Before each merge it rebuilds every
// alive cluster's mass and mixed conditional with ClusterDCFsAt; the
// recorded loss must equal it.DeltaI of the two merged clusters within
// 1e-12 relative or 1e-15 absolute, and no alive pair may lose less by
// equation (3) than the recorded loss, beyond the same tolerance.
func checkGreedyOnEquation3(t testing.TB, res *Result) {
	t.Helper()
	tol := func(x float64) float64 { return math.Max(1e-12*math.Abs(x), 1e-15) }
	q := len(res.Objects)
	alive := make([]int, q) // alive node ids, ascending: ClustersAt's order
	for i := range alive {
		alive[i] = i
	}
	for step, m := range res.Merges {
		dcfs, err := res.ClusterDCFsAt(q - step)
		if err != nil {
			t.Fatal(err)
		}
		eq3 := func(x, y int) float64 {
			return it.DeltaI(dcfs[x].P, dcfs[x].Cond, dcfs[y].P, dcfs[y].Cond)
		}
		if want := eq3(slices.Index(alive, m.Left), slices.Index(alive, m.Right)); math.Abs(m.Loss-want) > tol(want) {
			t.Fatalf("merge %d (%d+%d): loss %.17g, equation (3) %.17g", step, m.Left, m.Right, m.Loss, want)
		}
		for x := range dcfs {
			for y := x + 1; y < len(dcfs); y++ {
				if l := eq3(x, y); l < m.Loss-tol(m.Loss) {
					t.Fatalf("merge %d took %d+%d at %.17g, but %d+%d loses %.17g by equation (3)",
						step, m.Left, m.Right, m.Loss, alive[x], alive[y], l)
				}
			}
		}
		alive = append(slices.DeleteFunc(alive, func(n int) bool { return n == m.Left || n == m.Right }), m.Node)
	}
}

// decodeObjects turns fuzz bytes into at most 64 objects with repeated
// and proportional conditionals. The first byte picks 1–8 templates, each
// 1–4 weighted coordinates out of 16 drawn from the bytes that follow;
// every remaining byte is one object: a template and a weight of 1–16,
// normalized so the masses sum to 1. Objects of one template are
// duplicates where their weights match and proportional (equal
// conditionals) elsewhere.
func decodeObjects(data []byte) []Object {
	if len(data) == 0 {
		return nil
	}
	k := 1 + int(data[0]%8)
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
		es := make([]it.Entry, 1+next()%4)
		for i := range es {
			b := next()
			es[i] = it.Entry{Idx: int32(b % 16), P: float64(1 + b>>4)}
		}
		templates[j] = it.NewVec(es).Normalize()
	}
	data = data[:min(len(data), 64)]
	total := 0.0
	for _, b := range data {
		total += float64(1 + b>>4)
	}
	objs := make([]Object, len(data))
	for i, b := range data {
		objs[i] = Object{Label: fmt.Sprint(i), P: float64(1+b>>4) / total, Cond: templates[int(b%16)%k]}
	}
	return objs
}

// FuzzAgglomerate: over small object sets with repeated and proportional
// conditionals, the engine records the same merges bit for bit at budget
// 1 and at budget 4, the sequence is greedy on equation (3), and δI
// between duplicated objects is exactly 0. Seeds under testdata/fuzz/.
func FuzzAgglomerate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		objs := decodeObjects(data)
		one := AgglomerateKCtx(exec.WithWorkers(context.Background(), 1), objs, 1)
		four := AgglomerateKCtx(exec.WithWorkers(context.Background(), 4), objs, 1)
		if !reflect.DeepEqual(one.Merges, four.Merges) {
			t.Fatalf("budget 1 and budget 4 merge sequences differ:\n%+v\n%+v", one.Merges, four.Merges)
		}
		checkGreedyOnEquation3(t, one)
		for i := range objs {
			for j := i + 1; j < len(objs); j++ {
				if objs[i].P != objs[j].P || !reflect.DeepEqual(objs[i].Cond, objs[j].Cond) {
					continue
				}
				a, b := newCluster(objs[i]), newCluster(objs[j])
				if d := scatterDeltaI(&a, &b); d != 0 {
					t.Fatalf("objects %d and %d are duplicates, δI = %g", i, j, d)
				}
			}
		}
	})
}
