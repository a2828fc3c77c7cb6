package structmine

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 8), plus micro-benchmarks of the kernels and
// ablations of the design choices called out in DESIGN.md.
//
// The per-experiment benchmarks time the algorithmic pipeline for that
// artifact on the synthetic data sets (generation is excluded from the
// timed region). DBLP-backed benchmarks run at 20k tuples so the whole
// suite completes in minutes; cmd/experiments reproduces the artifacts
// at the paper's full 50k scale.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"structmine/internal/attrs"
	"structmine/internal/colstore"
	"structmine/internal/datagen"
	"structmine/internal/exec"
	"structmine/internal/experiments"
	"structmine/internal/fd"
	"structmine/internal/fdrank"
	"structmine/internal/ib"
	"structmine/internal/it"
	"structmine/internal/limbo"
	"structmine/internal/measures"
	"structmine/internal/relation"
	"structmine/internal/server"
	"structmine/internal/store"
	"structmine/internal/task"
	"structmine/internal/tuples"
	"structmine/internal/values"
)

const benchDBLPTuples = 20000

func benchDB2(b *testing.B) *relation.Relation {
	b.Helper()
	db, err := datagen.NewDB2Sample()
	if err != nil {
		b.Fatal(err)
	}
	return db.Joined
}

// benchTANE mines r with TANE on a fresh kernel over its resident
// adapter, as one job does.
func benchTANE(r *relation.Relation) ([]fd.FD, error) {
	ctx := context.Background()
	return fd.TANEColumnsCtx(ctx, fd.NewSets(ctx, relation.AsColumns(r)))
}

var benchDBLPCache = map[int]*relation.Relation{}

func benchDBLP(b *testing.B) *relation.Relation { return benchDBLPAt(b, benchDBLPTuples) }

// benchDBLPAt is the full-arity DBLP instance at n tuples; n = 8000 is
// the benchmark/ fd_wide workload's input shape.
func benchDBLPAt(b *testing.B, n int) *relation.Relation {
	b.Helper()
	if benchDBLPCache[n] == nil {
		benchDBLPCache[n] = datagen.NewDBLP(datagen.DBLPConfig{
			Tuples: n, Seed: 1,
			MiscFrac: 129.0 / 50000, JournalFrac: 0.28,
		})
	}
	return benchDBLPCache[n]
}

// benchGroup is task.GroupAttributes at B = 4 over a resident relation.
func benchGroup(b *testing.B, r *relation.Relation, phiT, phiV float64, double bool) *attrs.Grouping {
	ctx := context.Background()
	g, _, err := task.GroupAttributes(ctx, fd.NewSets(ctx, relation.AsColumns(r)), phiT, phiV, 4, double)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchPartition is the paper's horizontal partitioning (100 leaves,
// B = 4) into k clusters, k = 0 choosing automatically.
func benchPartition(b *testing.B, r *relation.Relation, k int) *tuples.PartitionResult {
	res, err := tuples.PartitionColumns(context.Background(), relation.AsColumns(r), 100, 4, k)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// --- Table 1: erroneous tuple detection ---

func BenchmarkTable1ErroneousTuples(b *testing.B) {
	r := benchDB2(b)
	inj := datagen.InjectTupleErrors(r, 5, 4, datagen.Typographic, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := tuples.FindDuplicatesCtx(context.Background(), inj.Dirty, 0.15, 4)
		if len(rep.Assign) != inj.Dirty.N() {
			b.Fatal("bad report")
		}
	}
}

// --- Table 2: erroneous value placement (double clustering) ---

func BenchmarkTable2ErroneousValues(b *testing.B) {
	r := benchDB2(b)
	inj := datagen.InjectTupleErrors(r, 5, 4, datagen.Typographic, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := context.Background()
		vc, err := task.ClusterValues(ctx, fd.NewSets(ctx, relation.AsColumns(inj.Dirty)), 1.0, 0.0, 4, true)
		if err != nil || len(vc.Assign) != inj.Dirty.D() {
			b.Fatal("bad clustering")
		}
	}
}

// --- Figure 14: DB2 attribute dendrogram ---

func BenchmarkFigure14DB2Dendrogram(b *testing.B) {
	r := benchDB2(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := benchGroup(b, r, 0, 0, false)
		if len(g.Res.Merges) == 0 {
			b.Fatal("no merges")
		}
	}
}

// --- Table 3: DB2 FD discovery + minimum cover + FD-RANK ---

func BenchmarkTable3DB2FDRank(b *testing.B) {
	r := benchDB2(b)
	g := benchGroup(b, r, 0, 0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fds, err := fd.FDEP(r)
		if err != nil {
			b.Fatal(err)
		}
		cover := fd.MinCover(fds)
		ranked := fdrank.Rank(cover, g, 0.5)
		if len(ranked) == 0 {
			b.Fatal("no ranked FDs")
		}
	}
}

// --- Figure 15: DBLP attribute dendrogram via double clustering ---

func BenchmarkFigure15DBLPDendrogram(b *testing.B) {
	r := benchDBLP(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := benchGroup(b, r, 0.5, 1.0, true)
		if len(g.AttrIdx) == 0 {
			b.Fatal("empty grouping")
		}
	}
}

// --- Table 4: horizontal partitioning of the DBLP projection ---

func BenchmarkTable4HorizontalPartition(b *testing.B) {
	r := benchDBLP(b)
	proj := r.Project(datagen.ProjectionAttrs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := benchPartition(b, proj, 3)
		if len(res.Clusters) != 3 {
			b.Fatal("bad partition")
		}
	}
}

// --- Figures 16-18: per-cluster attribute dendrograms ---

func BenchmarkFigure16to18ClusterDendrograms(b *testing.B) {
	r := benchDBLP(b)
	proj := r.Project(datagen.ProjectionAttrs())
	part := benchPartition(b, proj, 3)
	subs := make([]*relation.Relation, len(part.Clusters))
	for i, cluster := range part.Clusters {
		subs[i] = proj.Select(cluster)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sub := range subs {
			benchGroup(b, sub, 0.5, 1.0, true)
		}
	}
}

// --- Tables 5-6: per-cluster FD mining + ranking ---

func benchClusterFDs(b *testing.B, wantType string) {
	r := benchDBLP(b)
	proj := r.Project(datagen.ProjectionAttrs())
	part := benchPartition(b, proj, 3)
	var sub *relation.Relation
	for _, cluster := range part.Clusters {
		s := proj.Select(cluster)
		if clusterType(s) == wantType {
			sub = s
			break
		}
	}
	if sub == nil {
		b.Skipf("no %s cluster at this scale", wantType)
	}
	g := benchGroup(b, sub, 0.5, 1.0, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fds, err := benchTANE(sub)
		if err != nil {
			b.Fatal(err)
		}
		cover := fd.MinCover(fds)
		fdrank.Rank(cover, g, 0.5)
	}
}

func clusterType(sub *relation.Relation) string {
	bt := sub.AttrIndex("BookTitle")
	jr := sub.AttrIndex("Journal")
	conf, jour, misc := 0, 0, 0
	for t := 0; t < sub.N(); t++ {
		switch {
		case !sub.IsNull(t, bt):
			conf++
		case !sub.IsNull(t, jr):
			jour++
		default:
			misc++
		}
	}
	switch {
	case conf >= jour && conf >= misc:
		return "conference"
	case jour >= misc:
		return "journal"
	default:
		return "misc"
	}
}

func BenchmarkTable5Cluster1FDs(b *testing.B) { benchClusterFDs(b, "conference") }
func BenchmarkTable6Cluster2FDs(b *testing.B) { benchClusterFDs(b, "journal") }

// --- end-to-end experiment drivers (quick scale) ---

func BenchmarkExperimentSuiteQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reports := experiments.All(experiments.QuickScale())
		if len(reports) != 10 {
			b.Fatalf("expected 10 reports, got %d", len(reports))
		}
	}
}

// --- micro-benchmarks of the kernels ---

func benchVec(n int, seed int64) it.Vec {
	rng := rand.New(rand.NewSource(seed))
	es := make([]it.Entry, n)
	for i := range es {
		es[i] = it.Entry{Idx: int32(i * 3), P: rng.Float64() + 0.01}
	}
	return it.NewVec(es).Normalize()
}

func BenchmarkMicroEntropy(b *testing.B) {
	v := benchVec(1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Entropy(v)
	}
}

func BenchmarkMicroJS(b *testing.B) {
	p := benchVec(1024, 1)
	q := benchVec(1024, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.JS(0.4, p, 0.6, q)
	}
}

// BenchmarkMicroDeltaISmallVsLarge shows the weighted-sum identity's
// payoff: δI between a 16-coordinate object and a 100k-coordinate
// cluster costs O(16), not O(100k).
func BenchmarkMicroDeltaISmallVsLarge(b *testing.B) {
	big := limbo.NewDCF(limbo.Obj{ID: 0, W: 0.9, Cond: benchVec(100000, 1)})
	small := limbo.Obj{ID: 1, W: 0.1, Cond: benchVec(16, 2)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		big.DeltaIObj(small)
	}
}

func BenchmarkMicroDCFTreeInsert(b *testing.B) {
	r := benchDBLP(b)
	objs := tuples.Objects(r)
	tau := limbo.Threshold(0.5, limbo.MutualInfo(objs), len(objs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := limbo.NewTreeCtx(context.Background(), limbo.Config{B: 4, Threshold: tau})
		for _, o := range objs {
			tree.Insert(o)
		}
	}
	b.ReportMetric(float64(len(objs)), "tuples/op")
}

// BenchmarkDCFTreeInsert streams datagen DBLP tuples at several scales
// through Phase 1 — the sized companion to BenchmarkMicroDCFTreeInsert,
// showing how the flat-sparse kernels and tree-owned arena scale with
// the instance (generation is excluded from the timed region).
func BenchmarkDCFTreeInsert(b *testing.B) {
	for _, n := range []int{5000, 10000, 20000} {
		r := datagen.NewDBLP(datagen.DBLPConfig{
			Tuples: n, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28,
		})
		objs := tuples.Objects(r)
		tau := limbo.Threshold(0.5, limbo.MutualInfo(objs), len(objs))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tree := limbo.NewTreeCtx(context.Background(), limbo.Config{B: 4, Threshold: tau})
				for _, o := range objs {
					tree.Insert(o)
				}
			}
			b.ReportMetric(float64(len(objs)), "tuples/op")
		})
	}
}

// BenchmarkPhase1AtZero times Phase 1 at φ = 0 — the default of dedup,
// values, group-attrs, rank-fds and decompose — on cluster_narrow's
// 5 200 × 7 projection, over the tuple objects and over the value
// objects of double clustering (values over the φT = 0 tuple clusters):
// tree streams them through the B = 4 DCF-tree (BuildTreeCtx, the
// reference), grouped is limbo.Phase1Ctx's hash pass over identical
// conditionals.
func BenchmarkPhase1AtZero(b *testing.B) {
	ctx := context.Background()
	proj := datagen.NewDBLP(datagen.DBLPConfig{
		Tuples: 5200, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28,
	}).Project(datagen.ProjectionAttrs())
	tobjs := tuples.Objects(proj)
	assign, k := tuples.CompressCtx(ctx, proj, 0, 4)
	vobjs := values.ObjectsOverClusters(proj, assign, k)
	for _, in := range []struct {
		name string
		objs []limbo.Obj
	}{{"tuples", tobjs}, {"values-over-clusters", vobjs}} {
		b.Run("tree/"+in.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				limbo.BuildTreeCtx(ctx, in.objs, 0, 4)
			}
			b.ReportMetric(float64(len(in.objs)), "objects/op")
		})
		b.Run("grouped/"+in.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				limbo.Phase1Ctx(ctx, in.objs, 0, 4)
			}
			b.ReportMetric(float64(len(in.objs)), "objects/op")
		})
	}
}

// BenchmarkLimboAssign times the Phase 3 kernel alone on four shapes of
// the 5 200-row projection and the 8 000 × 13 relation. Sessions at the
// tasks' default parameters hand it only dense (report's duplicate step:
// tuples against the multi-tuple leaves of its φT = 0.3 tree) and
// tiny/partition (the projection's tuples against partition's k merged
// representatives). sparse (double-clustered value objects against every
// φV = 0 leaf — thousands of representatives, under 1 % of the pairs
// sharing a coordinate) and tiny/dedup (the projection's tuples against
// dedup's few φT = 0 multi-tuple leaves) are kept as kernel rows for
// τ > 0 calls of those shapes: at τ = 0 value clustering and dedup read
// the association off Phase 1 and run no Phase 3.
func BenchmarkLimboAssign(b *testing.B) {
	dblp := func(n int) *relation.Relation {
		return datagen.NewDBLP(datagen.DBLPConfig{
			Tuples: n, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28,
		})
	}
	proj := dblp(5200).Project(datagen.ProjectionAttrs())
	run := func(name string, reps []*limbo.DCF, objs []limbo.Obj) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				limbo.AssignCtx(context.Background(), reps, objs)
			}
			b.ReportMetric(float64(len(objs)), "objects/op")
			b.ReportMetric(float64(len(reps)), "reps/op")
		})
	}

	assign, k := tuples.CompressCtx(context.Background(), proj, 0, 4)
	vobjs := values.ObjectsOverClusters(proj, assign, k)
	run("sparse", limbo.BuildTreeCtx(context.Background(), vobjs, 0, 4).Leaves(), vobjs)

	full := dblp(8000)
	run("dense", tuples.FindDuplicatesCtx(context.Background(), full, 0.3, 4).Summaries, tuples.Objects(full))

	pr := benchPartition(b, proj, 0)
	clusters, err := pr.Res.ClustersAt(pr.K)
	if err != nil {
		b.Fatal(err)
	}
	tobjs := tuples.Objects(proj)
	run("tiny/partition", limbo.RepsFromClusters(pr.Leaves, clusters), tobjs)
	run("tiny/dedup", tuples.FindDuplicatesCtx(context.Background(), proj, 0, 4).Summaries, tobjs)
}

// BenchmarkRankFDs is the rank-fds task end to end at its default
// parameters (task.RunColumns: FD mining, value clustering over the
// φT = 0 tuple clusters at φV = 0, ranking) on cluster_narrow's
// 5 200 × ProjectionAttrs() shape and on DBLP 20 000 × 13.
func BenchmarkRankFDs(b *testing.B) {
	ctx := context.Background()
	for _, in := range []struct {
		name string
		r    *relation.Relation
	}{
		{"n=5200x7", benchDBLPAt(b, 5200).Project(datagen.ProjectionAttrs())},
		{"n=20000x13", benchDBLPAt(b, 20000)},
	} {
		c := relation.AsColumns(in.r)
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := task.RunColumns(ctx, c, "rank-fds", task.Params{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDedup is the dedup task end to end at its default parameters
// (task.RunColumns: φT = 0, so the groups are Π_R's classes, then pair
// refinement at min_sim 0.5) on cluster_narrow's 5 200 ×
// ProjectionAttrs() shape and on DBLP 20 000 × 13.
func BenchmarkDedup(b *testing.B) {
	ctx := context.Background()
	for _, in := range []struct {
		name string
		r    *relation.Relation
	}{
		{"n=5200x7", benchDBLPAt(b, 5200).Project(datagen.ProjectionAttrs())},
		{"n=20000x13", benchDBLPAt(b, 20000)},
	} {
		c := relation.AsColumns(in.r)
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := task.RunColumns(ctx, c, "dedup", task.Params{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTANE mines the datagen relations end to end: the DB2-style
// join sample and the DBLP instance (projection and full arity) at the
// suite's 20k scale — the workloads whose per-level partition products
// the arena layout and per-worker probe tables target.
func BenchmarkTANE(b *testing.B) {
	run := func(name string, r *relation.Relation) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fds, err := benchTANE(r)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(fds)), "fds")
			}
		})
	}
	run("db2", benchDB2(b))
	run("dblp-proj/n=20000", benchDBLP(b).Project(datagen.ProjectionAttrs()))
	run("dblp-full/n=20000", benchDBLP(b))
	run("dblp-full/n=8000", benchDBLPAt(b, 8000))
}

// BenchmarkTANEPooled is BenchmarkTANE's dblp-full/n=8000 leg run the
// way the daemon runs mine-fds jobs: back to back, each under a grant
// from one scheduler and on a fresh resident adapter, so every mine
// carves the pooled arenas the previous one returned and rebuilds the
// value postings. B/op is what one mine still allocates on the Go heap.
func BenchmarkTANEPooled(b *testing.B) {
	r := benchDBLPAt(b, 8000)
	sched := exec.NewScheduler(0)
	b.Run("dblp-full/n=8000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := sched.Acquire()
			ctx := exec.WithGrant(context.Background(), g)
			fds, err := fd.TANEColumnsCtx(ctx, fd.NewSets(ctx, relation.AsColumns(r)))
			g.Release()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(fds)), "fds")
		}
	})
}

// BenchmarkMineApprox is the g3 miner at the fd_wide workload's shape
// and the approx-fds task's defaults (ε = 0.05, LHS ≤ 3).
func BenchmarkMineApprox(b *testing.B) {
	r := benchDBLPAt(b, 8000)
	b.Run("dblp-full/n=8000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fds, err := fd.MineApproxCtx(context.Background(), r, 0.05, 3)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(fds)), "fds")
		}
	})
}

// benchColstore writes the 20k-tuple DBLP projection to a colstore
// file once per process and opens it for the paged benchmark legs.
func benchColstore(b *testing.B) (*relation.Relation, *colstore.Table) {
	r := benchDBLP(b).Project(datagen.ProjectionAttrs())
	return r, benchTable(b, r)
}

// benchTable writes r as a colstore table in the benchmark's temp dir
// and opens it.
func benchTable(b *testing.B, r *relation.Relation) *colstore.Table {
	meta := store.DatasetMeta{
		Hash: fmt.Sprintf("%x", sha256.Sum256([]byte("bench-colstore"))),
		Name: "bench", Source: "bench", Bytes: 0,
	}
	path, err := colstore.WriteFromRelation(b.TempDir(), meta, r, colstore.WriteOptions{})
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := colstore.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { tbl.Close() })
	return tbl
}

// benchPagedIngest is paged_ingest's shape: DBLP 50 000 ×
// ProjectionAttrs() as a colstore table, and the next 500 generated rows
// as an append body under the same header.
func benchPagedIngest(b *testing.B) (*colstore.Table, []byte) {
	const rows, appendRows = 50000, 500
	full := datagen.NewDBLP(datagen.DBLPConfig{
		Tuples: rows + appendRows, Seed: 1,
		MiscFrac: 129.0 / 50000, JournalFrac: 0.28,
	}).Project(datagen.ProjectionAttrs())
	var csv bytes.Buffer
	if err := full.WriteCSV(&csv); err != nil {
		b.Fatal(err)
	}
	lines := bytes.SplitAfter(csv.Bytes(), []byte("\n"))
	base, err := relation.ReadCSVLimited("bench", bytes.NewReader(bytes.Join(lines[:1+rows], nil)), relation.Limits{})
	if err != nil {
		b.Fatal(err)
	}
	body := append(append([]byte(nil), lines[0]...), bytes.Join(lines[1+rows:], nil)...)
	return benchTable(b, base), body
}

// BenchmarkColstoreAppend times colstore.Append of 500 rows to the
// 50 000-row table: the verbatim stripe copy, the partial-stripe replay
// and the tail splice an append request runs.
func BenchmarkColstoreAppend(b *testing.B) {
	tbl, body := benchPagedIngest(b)
	meta := tbl.Meta()
	meta.Hash, meta.Epoch = fmt.Sprintf("%x", sha256.Sum256(body)), 1
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := colstore.Append(dir, meta, tbl, body, relation.Limits{}, colstore.WriteOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegisterCSV times one registration of an uploaded CSV body
// through Registry.RegisterCSV, as POST /v1/datasets runs it: paged is
// paged_ingest's upload (DBLP 50 000 × ProjectionAttrs(), parsed,
// written as a .col file to the store and opened), resident is
// fd_wide's (DBLP 8 000 × 13, parsed and described, no store). Each
// iteration renames the first attribute in place, so every body is new
// content of the same length and no registration is a re-registration;
// every 64 registrations, the default cap, the daemon is replaced
// outside the timer.
func BenchmarkRegisterCSV(b *testing.B) {
	for _, tc := range []struct {
		name  string
		rel   func() *relation.Relation
		store bool
	}{
		{"paged", func() *relation.Relation {
			return datagen.NewDBLP(datagen.DBLPConfig{
				Tuples: 50000, Seed: 1, MiscFrac: 129.0 / 50000, JournalFrac: 0.28,
			}).Project(datagen.ProjectionAttrs())
		}, true},
		{"resident", func() *relation.Relation { return benchDBLPAt(b, 8000) }, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var csv bytes.Buffer
			if err := tc.rel().WriteCSV(&csv); err != nil {
				b.Fatal(err)
			}
			const digits = 8
			body := append(make([]byte, digits), csv.Bytes()...) // header cell "<digits><Attr>"
			var reg *server.Registry
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%64 == 0 { // a fresh daemon before the default dataset cap
					b.StopTimer()
					cfg := server.Config{Workers: 1}
					if tc.store {
						st, err := store.Open(b.TempDir(), store.Options{})
						if err != nil {
							b.Fatal(err)
						}
						cfg.Store = st
					}
					reg = server.New(cfg).Registry()
					b.StartTimer()
				}
				for j, v := digits-1, i; j >= 0; j, v = j-1, v/10 {
					body[j] = byte('0' + v%10)
				}
				if _, created, err := reg.RegisterCSV("bench", "bench", body); err != nil || !created {
					b.Fatalf("registration %d: created=%v, %v", i, created, err)
				}
			}
		})
	}
}

// BenchmarkColstoreOpen times colstore.Open of the 50 000-row table: the
// header, footer and tail CRCs and the tail's validation pass, which
// every registration and append runs.
func BenchmarkColstoreOpen(b *testing.B) {
	tbl, _ := benchPagedIngest(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := colstore.Open(tbl.Path())
		if err != nil {
			b.Fatal(err)
		}
		t.Close()
	}
}

// BenchmarkPagedScan sweeps every stripe of every column of the
// 20k-tuple DBLP relation through relation.ScanStripes — the fanned,
// batched read path the paged miners sit on — once over the resident
// adapter and once over an mmap-backed colstore table. CI runs both
// legs at -cpu 1,4 and gates the paged/resident ratio at 4 cpus (warn
// >1.5x, fail >2x; see scripts/benchcmp.sh --parity), so the
// out-of-core read overhead is measured rather than assumed.
func BenchmarkPagedScan(b *testing.B) {
	r, tbl := benchColstore(b)
	scan := func(b *testing.B, c relation.Columns) {
		attrs := make([]int, c.M())
		for a := range attrs {
			attrs[a] = a
		}
		ctx := context.Background()
		var sum int64
		for i := 0; i < b.N; i++ {
			scan := relation.PlanScan(ctx, c, attrs)
			sums := make([]int64, scan.Workers())
			err := scan.Run(func(w, p int, cols [][]int32) error {
				for _, col := range cols {
					for _, v := range col {
						sums[w] += int64(v)
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range sums {
				sum += s
			}
		}
		if sum == 0 && c.N() > 0 {
			b.Fatal("scan read nothing")
		}
		b.SetBytes(int64(c.N()) * int64(c.M()) * 4)
	}
	b.Run("resident", func(b *testing.B) { scan(b, relation.AsColumns(r)) })
	b.Run("paged", func(b *testing.B) { scan(b, tbl) })
}

// BenchmarkPagedTANE mines the same relation through both serving
// paths — the resident row pipeline and column discovery over the
// paged table (whose level-1 partitions come straight from the value
// index) — timing the full dependency-discovery pipeline each way.
// CI gates the paged/resident ratio alongside BenchmarkPagedScan.
func BenchmarkPagedTANE(b *testing.B) {
	r, tbl := benchColstore(b)
	b.Run("resident", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := benchTANE(r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("paged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fd.DiscoverColumns(context.Background(), tbl); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAppendRemine is the incremental-mining cost gate: after a 1%
// append, re-mining through the persisted FD state (decode, hash the
// appended rows, one filtered pass over the prefix stripes) must be far
// cheaper than mining the appended relation from scratch — over the
// resident adapter (full/delta) and over an mmap-backed colstore table
// (paged-full/paged-delta) alike. The appended rows duplicate existing
// tuples, so the delta path genuinely engages — duplicates can never
// break an FD — and both paths return the identical minimal set. CI runs
// both pairs and fails if either ratio falls below the floor (see the
// incremental job and scripts/benchcmp.sh --ratio).
func BenchmarkAppendRemine(b *testing.B) {
	base := benchDBLP(b).Project(datagen.ProjectionAttrs())
	k := base.N() / 100
	rows := make([][]string, k)
	for i := range rows {
		rows[i] = base.TupleStrings(i)
	}
	ext, err := base.Extend(rows)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	baseFDs, err := fd.DiscoverColumns(ctx, relation.AsColumns(base))
	if err != nil {
		b.Fatal(err)
	}
	fd.SortFDs(baseFDs)
	state := fd.EncodeState(&fd.MineState{N: base.N(), Attrs: base.M(), FDs: baseFDs})

	for _, tier := range []struct {
		prefix string
		c      relation.Columns
	}{{"", relation.AsColumns(ext)}, {"paged-", benchTable(b, ext)}} {
		b.Run(tier.prefix+"full", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fd.DiscoverColumns(ctx, tier.c); err != nil {
					b.Fatal(err)
				}
			}
		})
		// State decode sits inside the timed region: the server pays it
		// on every delta re-mine, so the gate must too.
		b.Run(tier.prefix+"delta", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prev, err := fd.DecodeState(state)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, delta, err := fd.DiscoverDeltaColumns(ctx, fd.NewSets(ctx, tier.c), prev); err != nil || !delta {
					b.Fatalf("delta=%v err=%v", delta, err)
				}
			}
		})
	}
}

// taskSizes is BenchmarkTaskSize's table: every task task.RunColumns
// runs, with the DBLP × 13 row counts it is timed at. mine-mvds stops at
// 1 000 rows, where it already takes seconds.
var taskSizes = []struct {
	task string
	ns   []int
}{
	{"describe", []int{1000, 5000, 20000}},
	{"report", []int{1000, 5000, 20000}},
	{"dedup", []int{1000, 5000, 20000}},
	{"partition", []int{1000, 5000, 20000}},
	{"values", []int{1000, 5000, 20000}},
	{"group-attrs", []int{1000, 5000, 20000}},
	{"mine-fds", []int{1000, 5000, 20000}},
	{"mine-mvds", []int{250, 500, 1000}},
	{"approx-fds", []int{1000, 5000, 20000}},
	{"rank-fds", []int{1000, 5000, 20000}},
	{"decompose", []int{1000, 5000, 20000}},
}

// BenchmarkTaskSize times every task on a size axis: one run of
// task.RunColumns at default params over the resident DBLP instance at
// each row count of taskSizes (generation outside the timed region).
func BenchmarkTaskSize(b *testing.B) {
	for _, row := range taskSizes {
		b.Run(row.task, func(b *testing.B) {
			for _, n := range row.ns {
				c := relation.AsColumns(benchDBLPAt(b, n))
				b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := task.RunColumns(context.Background(), c, row.task, task.Params{}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// benchKeyedAt is benchDBLPAt's instance with a leading unique Id
// column: no two tuples are identical, so the key search never stops at
// Π_R's duplicates the way it does on DBLP.
func benchKeyedAt(b *testing.B, n int) *relation.Relation {
	b.Helper()
	r := benchDBLPAt(b, n)
	kb := relation.NewBuilder("dblp-keyed", append([]string{"Id"}, r.Attrs...))
	for t := 0; t < n; t++ {
		if err := kb.Add(append([]string{strconv.Itoa(t)}, r.TupleStrings(t)...)); err != nil {
			b.Fatal(err)
		}
	}
	return kb.Relation()
}

// BenchmarkKeys times the facade's candidate-key step, Miner.Keys, on
// duplicate-free DBLP × 13 plus a unique Id column.
func BenchmarkKeys(b *testing.B) {
	for _, n := range []int{2500, 10000} {
		m := NewMiner(benchKeyedAt(b, n), DefaultOptions())
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Keys(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEveryTaskHasASizeBenchmark: every task a dataset can run has its
// row in taskSizes, and every row names such a task.
func TestEveryTaskHasASizeBenchmark(t *testing.T) {
	rows := map[string]bool{}
	for _, row := range taskSizes {
		rows[row.task] = true
	}
	for _, spec := range task.Specs {
		if spec.MultiFile {
			continue
		}
		if !rows[spec.Name] {
			t.Errorf("task %q has no row in taskSizes", spec.Name)
		}
		delete(rows, spec.Name)
	}
	for name := range rows {
		t.Errorf("taskSizes row %q names no runnable task", name)
	}
}

func BenchmarkMicroAIB(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	objs := make([]ib.Object, 200)
	for i := range objs {
		es := make([]it.Entry, 8)
		for j := range es {
			es[j] = it.Entry{Idx: int32(rng.Intn(64)), P: rng.Float64() + 0.01}
		}
		objs[i] = ib.Object{Label: fmt.Sprint(i), P: 1.0 / 200, Cond: it.NewVec(es).Normalize()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ib.AgglomerateKCtx(context.Background(), objs, 1)
	}
}

// benchAIBObjects builds q random objects with small sparse supports over
// a bounded domain, the shape the AIB engine sees from LIMBO Phase 2 leaf
// summaries.
func benchAIBObjects(q int) []ib.Object {
	rng := rand.New(rand.NewSource(17))
	objs := make([]ib.Object, q)
	for i := range objs {
		es := make([]it.Entry, 8)
		for j := range es {
			es[j] = it.Entry{Idx: int32(rng.Intn(256)), P: rng.Float64() + 0.01}
		}
		objs[i] = ib.Object{Label: fmt.Sprint(i), P: 1 / float64(q), Cond: it.NewVec(es).Normalize()}
	}
	return objs
}

// BenchmarkAIBInit isolates candidate initialization: parallel δI over
// the q(q−1)/2 initial pairs plus the single O(q²) heapify, with one
// merge step (k = q−1) so the engine path is fully exercised.
func BenchmarkAIBInit(b *testing.B) {
	for _, q := range []int{512, 1024, 2048} {
		objs := benchAIBObjects(q)
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ib.AgglomerateKCtx(context.Background(), objs, q-1)
			}
		})
	}
}

// BenchmarkAgglomerate runs the full merge sequence with the parallel
// engine and the retained serial reference at matched inputs; the ratio
// is the tentpole's speedup figure (scripts/bench.sh records both).
func BenchmarkAgglomerate(b *testing.B) {
	for _, q := range []int{512, 1024, 2048} {
		objs := benchAIBObjects(q)
		b.Run(fmt.Sprintf("parallel/q=%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ib.AgglomerateKCtx(context.Background(), objs, 1)
			}
		})
		b.Run(fmt.Sprintf("serial/q=%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ib.AgglomerateSerial(objs)
			}
		})
	}
}

// BenchmarkPhase2 is LIMBO Phase 2 of the benchmark's cluster_narrow
// partition: AIB over the 100 leaf DCFs tuples.PartitionTreeCtx builds on
// DBLP 5 200 × ProjectionAttrs(), seed 1, at p(t) = 1/n as
// PartitionFromTree hands them to Phase 2.
func BenchmarkPhase2(b *testing.B) {
	rel := benchDBLPAt(b, 5200).Project(datagen.ProjectionAttrs())
	ctx := context.Background()
	leaves := tuples.PartitionTreeCtx(ctx, rel, 100, 4).Leaves()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		limbo.Phase2Ctx(ctx, leaves, 1)
	}
}

// BenchmarkPartition is the partition task's engine end to end —
// Phase 1's leaf-bounded tree, AIB over its leaves, the automatic k,
// Phase 3 and the loss accounting — on cluster_narrow's shape (DBLP
// 5 200 × ProjectionAttrs(), 100 leaves, B = 4) and at n = 20 000.
func BenchmarkPartition(b *testing.B) {
	for _, n := range []int{5200, 20000} {
		rel := benchDBLPAt(b, n).Project(datagen.ProjectionAttrs())
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchPartition(b, rel, 0)
			}
		})
	}
}

func BenchmarkMicroFDEP(b *testing.B) {
	r := benchDB2(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fd.FDEP(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroTANE(b *testing.B) {
	r := benchDB2(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := benchTANE(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroMinCover(b *testing.B) {
	r := benchDB2(b)
	fds, err := fd.FDEP(r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fd.MinCover(fds)
	}
}

func BenchmarkMicroRADRTR(b *testing.B) {
	r := benchDBLP(b)
	ix := []int{2, 7, 8, 9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measures.RAD(r, ix)
		measures.RTR(r, ix)
	}
}

// --- ablations ---

// BenchmarkAblationBranchingFactor varies the DCF-tree fanout B; the
// paper reports B does not significantly affect quality and uses B=4
// for insertion speed.
func BenchmarkAblationBranchingFactor(b *testing.B) {
	r := benchDBLP(b)
	objs := tuples.Objects(r)
	tau := limbo.Threshold(0.5, limbo.MutualInfo(objs), len(objs))
	for _, fan := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("B=%d", fan), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tree := limbo.NewTreeCtx(context.Background(), limbo.Config{B: fan, Threshold: tau})
				for _, o := range objs {
					tree.Insert(o)
				}
				b.ReportMetric(float64(tree.LeafCount()), "leaves")
			}
		})
	}
}

// BenchmarkAblationPhi varies φT: larger φ creates coarser summaries
// (fewer leaves) with faster insertion.
func BenchmarkAblationPhi(b *testing.B) {
	r := benchDBLP(b)
	objs := tuples.Objects(r)
	mi := limbo.MutualInfo(objs)
	for _, phi := range []float64{0.25, 0.5, 1.0, 2.0} {
		b.Run(fmt.Sprintf("phi=%.2f", phi), func(b *testing.B) {
			tau := limbo.Threshold(phi, mi, len(objs))
			for i := 0; i < b.N; i++ {
				tree := limbo.NewTreeCtx(context.Background(), limbo.Config{B: 4, Threshold: tau})
				for _, o := range objs {
					tree.Insert(o)
				}
				b.ReportMetric(float64(tree.LeafCount()), "leaves")
			}
		})
	}
}

// BenchmarkAblationDoubleClustering compares direct value clustering
// with double clustering on a mid-size instance — the paper's Section
// 6.2 scalability argument.
func BenchmarkAblationDoubleClustering(b *testing.B) {
	r := datagen.NewDBLP(datagen.DBLPConfig{Tuples: 4000, Seed: 1, MiscFrac: 0.002, JournalFrac: 0.28})
	cluster := func(b *testing.B, double bool) {
		for i := 0; i < b.N; i++ {
			ctx := context.Background()
			if _, err := task.ClusterValues(ctx, fd.NewSets(ctx, relation.AsColumns(r)), 0.5, 1.0, 4, double); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("direct", func(b *testing.B) { cluster(b, false) })
	b.Run("double", func(b *testing.B) { cluster(b, true) })
}

// BenchmarkAblationFDEPvsTANE sweeps the instance size to expose the
// crossover between the pairwise FDEP and the level-wise TANE — the
// reason DiscoverCtx dispatches on size.
func BenchmarkAblationFDEPvsTANE(b *testing.B) {
	base := benchDBLP(b)
	proj := base.Project(datagen.ProjectionAttrs())
	for _, n := range []int{100, 400, 1600} {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i * (proj.N() / n)
		}
		sub := proj.Select(rows)
		b.Run(fmt.Sprintf("FDEP/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fd.FDEP(sub); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("TANE/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := benchTANE(sub); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationApproxFDs times the approximate miner against the
// exact one at matched scope.
func BenchmarkAblationApproxFDs(b *testing.B) {
	r := benchDB2(b)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fd.MineApproxCtx(context.Background(), r, 0, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("eps=0.05", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fd.MineApproxCtx(context.Background(), r, 0.05, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}
