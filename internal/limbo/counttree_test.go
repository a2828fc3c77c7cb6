package limbo_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"structmine/internal/colstore"
	"structmine/internal/datagen"
	"structmine/internal/exec"
	"structmine/internal/limbo"
	"structmine/internal/relation"
	"structmine/internal/store"
	"structmine/internal/tuples"
)

// near is the oracle's tolerance between a count-kernel quantity and the
// float kernel's: 1e-9 relative, plus 1e-13 absolute for the rounding of
// the float weighted sums, whose x·log₂x terms add up to a few bits.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))+1e-13
}

// decision is one choice the float tree made between candidates.
type decision struct {
	dist   []float64
	choice int
}

// lockstep streams objs into a float tree and a count tree together,
// object by object, hearing every choice both make between candidates
// (Tree.steer). At each choice the count kernel's δI, times s₀, must be
// the float kernel's (near), and the two must choose alike unless the
// float tree's candidates tie (near): then the count tree is steered to
// the float tree's choice, so both keep one structure and every later
// choice is compared too. It returns the trees, the number of ties and
// the number of objects whose insertion a tie decided.
func lockstep(t testing.TB, where string, ctx context.Context, cfg limbo.Config, objs []limbo.Obj) (ft, ct *limbo.Tree, ties, tied int) {
	ft = limbo.NewTreeCtx(ctx, cfg)
	ct = limbo.NewStreamTree(ctx, cfg, objs)
	if !ct.Counted() {
		t.Fatalf("%s: the tuple objects did not select the count kernel", where)
	}
	s0 := ct.Unit()
	var log []decision
	ft.Steer(func(dist []float64, choice int) int {
		log = append(log, decision{append([]float64(nil), dist...), choice})
		return choice
	})
	for i, o := range objs {
		log = log[:0]
		ft.Insert(o)
		j, steered := 0, false
		ct.Steer(func(dist []float64, choice int) int {
			if j >= len(log) || len(dist) != len(log[j].dist) {
				t.Fatalf("%s: object %d: decision %d has no float twin", where, i, j)
			}
			f := log[j]
			j++
			for c, d := range dist {
				if !near(d*s0, f.dist[c]) {
					t.Fatalf("%s: object %d: candidate %d: s₀·δI = %.17g on counts, %.17g on floats", where, i, c, d*s0, f.dist[c])
				}
			}
			if choice == f.choice {
				return choice
			}
			if !near(f.dist[choice], f.dist[f.choice]) {
				t.Fatalf("%s: object %d: counts chose %d (%.17g), floats %d (%.17g) in %v", where, i,
					choice, f.dist[choice], f.choice, f.dist[f.choice], f.dist)
			}
			ties++
			steered = true
			return f.choice
		})
		ct.Insert(o)
		if j != len(log) {
			t.Fatalf("%s: object %d: %d decisions on counts, %d on floats", where, i, j, len(log))
		}
		if steered {
			tied++
		}
	}
	ft.Steer(nil)
	ct.Steer(nil)
	return ft, ct, ties, tied
}

// sameLeaves checks that the count tree's leaves (float DCFs on the
// heap) are the float tree's: the same members — first id and size —
// and the same conditionals within 1e-9.
func sameLeaves(t testing.TB, where string, ct, ft *limbo.Tree) {
	cl, fl := ct.Leaves(), ft.Leaves()
	if len(cl) != len(fl) {
		t.Fatalf("%s: %d leaves on counts, %d on floats", where, len(cl), len(fl))
	}
	for i := range fl {
		c, f := cl[i], fl[i]
		if c.FirstID != f.FirstID || c.N != f.N || !near(c.W, f.W) {
			t.Fatalf("%s: leaf %d: (first %d, N %d, W %v) on counts, (%d, %d, %v) on floats", where, i, c.FirstID, c.N, c.W, f.FirstID, f.N, f.W)
		}
		cc, fc := c.Cond(), f.Cond()
		if len(cc) != len(fc) {
			t.Fatalf("%s: leaf %d: support %d on counts, %d on floats", where, i, len(cc), len(fc))
		}
		for k := range fc {
			if cc[k].Idx != fc[k].Idx || math.Abs(cc[k].P-fc[k].P) > 1e-9 {
				t.Fatalf("%s: leaf %d: p(%d|c) = %v on counts, p(%d|c) = %v on floats", where, i, cc[k].Idx, cc[k].P, fc[k].Idx, fc[k].P)
			}
		}
	}
}

// countTreeInput decodes fuzz bytes into a small relation and a leaf
// bound: the first byte picks 1–4 attributes and a bound of 2–9 leaves,
// the second a domain of 1–8 values per attribute, and every following
// byte is one cell, row by row (at most 200 rows).
func countTreeInput(data []byte) (*relation.Relation, int) {
	if len(data) < 2 {
		return nil, 0
	}
	m, maxLeaves, dom := 1+int(data[0]%4), 2+int(data[0]/4%8), 1+int(data[1]%8)
	cells := data[2:]
	var sb strings.Builder
	for a := 0; a < m; a++ {
		if a > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "a%d", a)
	}
	sb.WriteByte('\n')
	for r := 0; (r+1)*m <= len(cells) && r < 200; r++ {
		for a := 0; a < m; a++ {
			if a > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "x%d", int(cells[r*m+a])%dom)
		}
		sb.WriteByte('\n')
	}
	rel, err := relation.ReadCSV("fuzz", strings.NewReader(sb.String()))
	if err != nil {
		panic(err) // the generated CSV is always well-formed
	}
	return rel, maxLeaves
}

// pagedTable stores r as a colstore table of 32-row pages.
func pagedTable(t *testing.T, r *relation.Relation) relation.Columns {
	t.Helper()
	meta := store.DatasetMeta{Hash: fmt.Sprintf("%064x", r.N()), Name: r.Name, Source: "test"}
	path, err := colstore.WriteFromRelation(t.TempDir(), meta, r, colstore.WriteOptions{PageRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.Close() })
	return tbl
}

// TestCountTreeMatchesFloatTree is the count kernel's oracle. Over DB2
// (at 20 leaves, so that it rebuilds), DBLP 2 000 × 13 and the
// cluster_narrow 5 200 × 7 projection (at partition's 100 leaves) and
// four fuzz-decoder relations, with the tuple objects read resident and
// from a paged colstore table, at one worker and at four:
//   - every choice of the count tree is the float tree's except where
//     the float tree's candidates tie within 1e-9, and s₀ times every
//     count δI it compared is the float δI (lockstep);
//   - so the leaves have the same members, their conditionals agree
//     within 1e-9, and both trees pass Validate;
//   - the leaves' I(C;V) and the partition's info_loss_frac are within
//     1e-9 of the float tree's, with the same k and clusters;
//   - the partition is identical, bit for bit, at one worker and four.
//
// It logs how many objects a tie decided.
func TestCountTreeMatchesFloatTree(t *testing.T) {
	db2, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	type source struct {
		name      string
		r         *relation.Relation
		maxLeaves int
	}
	sources := []source{
		{"db2", db2.Joined, 20},
		{"dblp-2000x13", datagen.NewDBLP(datagen.DBLPConfig{Tuples: 2000, Seed: 1}), 100},
		{"dblp-5200x7", datagen.NewDBLP(datagen.DBLPConfig{Tuples: 5200, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28}).Project(datagen.ProjectionAttrs()), 100},
	}
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 4; i++ {
		data := make([]byte, 2+rng.Intn(400))
		rng.Read(data)
		r, maxLeaves := countTreeInput(data)
		sources = append(sources, source{fmt.Sprintf("fuzz-%d", i), r, maxLeaves})
	}
	for _, src := range sources {
		if testing.Short() && src.r.N() > 2000 {
			continue
		}
		cfg := limbo.Config{B: 4, MaxLeafEntries: src.maxLeaves}
		var partitions []*tuples.PartitionResult
		for _, cols := range []struct {
			name string
			c    relation.Columns
		}{{"resident", relation.AsColumns(src.r)}, {"paged", pagedTable(t, src.r)}} {
			for _, workers := range []int{1, 4} {
				where := fmt.Sprintf("%s/%s/%dw", src.name, cols.name, workers)
				ctx := exec.WithWorkers(context.Background(), workers)
				objs, err := tuples.ObjectsColumnsCtx(ctx, cols.c)
				if err != nil {
					t.Fatal(err)
				}
				ft, ct, ties, tied := lockstep(t, where, ctx, cfg, objs)
				for _, tree := range []*limbo.Tree{ft, ct} {
					if err := tree.Validate(); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
				}
				sameLeaves(t, where, ct, ft)
				if ci, fi := ct.Info(), ft.Info(); !near(ci, fi) {
					t.Fatalf("%s: leaf I(C;V) = %.17g on counts, %.17g on floats", where, ci, fi)
				}
				cp := tuples.PartitionFromTree(ctx, src.r, ct, 0)
				fp := tuples.PartitionFromTree(ctx, src.r, ft, 0)
				if cp.K != fp.K || !reflect.DeepEqual(cp.Clusters, fp.Clusters) || !near(cp.InfoLossFrac, fp.InfoLossFrac) {
					t.Fatalf("%s: partition k=%d loss %.17g on counts, k=%d loss %.17g on floats", where, cp.K, cp.InfoLossFrac, fp.K, fp.InfoLossFrac)
				}
				t.Logf("%s: %d objects, %d leaves, %d rebuilds; %d ties decided %d objects", where,
					len(objs), ct.LeafCount(), ct.Rebuilds(), ties, tied)

				p, err := tuples.PartitionColumns(ctx, cols.c, src.maxLeaves, 4, 0)
				if err != nil {
					t.Fatal(err)
				}
				partitions = append(partitions, p)
			}
		}
		for i, p := range partitions[1:] {
			if !reflect.DeepEqual(p, partitions[0]) {
				t.Fatalf("%s: partition %d differs from the resident one-worker partition", src.name, i+1)
			}
		}
	}
}

// FuzzCountTree: over a small relation and leaf bound (countTreeInput),
// the count tree chooses as the float tree does but for ties and s₀·δI
// on counts is δI on floats (lockstep), both trees pass Validate, and
// the partition covers every tuple exactly once. Seeds under
// testdata/fuzz/.
func FuzzCountTree(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, maxLeaves := countTreeInput(data)
		if r == nil || r.N() == 0 {
			return
		}
		ctx := context.Background()
		objs := tuples.Objects(r)
		ft, ct, _, _ := lockstep(t, "fuzz", ctx, limbo.Config{B: 4, MaxLeafEntries: maxLeaves}, objs)
		for _, tree := range []*limbo.Tree{ft, ct} {
			if err := tree.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		sameLeaves(t, "fuzz", ct, ft)
		p, err := tuples.PartitionColumns(ctx, relation.AsColumns(r), maxLeaves, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]int, r.N())
		for c, members := range p.Clusters {
			for _, tu := range members {
				seen[tu]++
				if p.Assign[tu].Cluster != c {
					t.Fatalf("tuple %d is in cluster %d, assigned to %d", tu, c, p.Assign[tu].Cluster)
				}
			}
		}
		for tu, n := range seen {
			if n != 1 {
				t.Fatalf("tuple %d is in %d clusters", tu, n)
			}
		}
		if !(p.InfoLossFrac >= 0 && p.InfoLossFrac <= 1) {
			t.Fatalf("info_loss_frac %v outside [0, 1]", p.InfoLossFrac)
		}
	})
}
