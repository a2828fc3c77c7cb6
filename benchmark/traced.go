package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"structmine/internal/attrs"
	"structmine/internal/colstore"
	"structmine/internal/exec"
	"structmine/internal/fd"
	"structmine/internal/fdrank"
	"structmine/internal/limbo"
	"structmine/internal/measures"
	"structmine/internal/primcache"
	"structmine/internal/relation"
	"structmine/internal/server"
	"structmine/internal/store"
	"structmine/internal/task"
	"structmine/internal/tuples"
	"structmine/internal/values"
)

// tracedSessions is how many in-process sessions a traced run replays.
const tracedSessions = 5

// Engine constants the task layer passes down (internal/task: defaultB,
// defaultMaxLeaves, and the approx-fds defaults). The replay calls the
// layers with the values the tasks use.
const (
	taskB         = 4
	taskMaxLeaves = 100
	taskEps       = 0.05
	taskMaxLHS    = 3
	taskPsi       = 0.5
	taskMinSim    = 0.5
)

// traced is the outcome of the in-process part of a traced run.
type traced struct {
	sum           traceSummary
	parseMB       float64 // CSV megabytes one session parses or ingests
	parseAllocMB  float64 // median bytes allocated by relation.parse
	artifactBytes float64 // median artifact bytes one session encodes
}

// underGrant runs fn the way the daemon's job runner runs a task: under
// a scheduler grant that lends the worker budget and pooled arenas.
func underGrant(sched *exec.Scheduler, fn func(ctx context.Context)) {
	g := sched.Acquire()
	defer g.Release()
	fn(exec.WithGrant(context.Background(), g))
}

func spanName(taskName string) string {
	return "task." + strings.ReplaceAll(taskName, "-", "_")
}

// scanAll streams every stripe of every attribute through a no-op.
func scanAll(ctx context.Context, c relation.Columns) error {
	all := make([]int, c.M())
	for i := range all {
		all[i] = i
	}
	return relation.ScanStripes(ctx, c, all, func(w, p int, cols [][]int32) error { return nil })
}

// traceCold replays sessions of a cold workload in-process and records a
// span around every call into a layer. The first error aborts the trace.
func traceCold(cfg runConfig, w *coldWorkload, in *coldInput, sessions int) (*traced, *tracer, error) {
	tr := newTracer()
	sched := exec.NewScheduler(0)
	prim := primcache.New(64 << 20) // the daemon's default budget
	out := &traced{parseMB: float64(len(in.base)) / 1e6}
	var allocs, artifacts []float64
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for s := 1; s <= sessions && firstErr == nil; s++ {
		tr.session = s
		var alloc, artifact float64
		if w.storage == "paged" {
			artifact = tracePagedSession(cfg, tr, sched, prim, w, in, s, fail)
		} else {
			alloc, artifact = traceResidentSession(tr, sched, w, in, s, fail)
		}
		allocs = append(allocs, alloc)
		artifacts = append(artifacts, artifact)
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	decomposed := map[string]bool{}
	for _, q := range append(append([]question(nil), w.questions...), w.afterAppend...) {
		if q.Task != "describe" {
			decomposed[spanName(q.Task)] = true
		}
	}
	out.sum = summarize(tr.spans, decomposed)
	out.parseAllocMB = median(allocs)
	out.artifactBytes = median(artifacts)
	return out, tr, nil
}

// runAndEncode is the whole-task part of a traced session: task.Run as
// the job runner calls it, then the artifact's JSON encoding.
func runAndEncode(tr *tracer, sched *exec.Scheduler, q question, run func(ctx context.Context, p task.Params) (any, error), fail func(error)) float64 {
	var p task.Params
	if len(q.Params) > 0 {
		fail(json.Unmarshal(q.Params, &p))
	}
	var res any
	underGrant(sched, func(ctx context.Context) {
		tr.do(spanName(q.Task), func() {
			var err error
			res, err = run(ctx, p)
			fail(err)
		})
	})
	var n int
	tr.do("task.encode", func() {
		data, err := json.Marshal(res)
		fail(err)
		n = len(data)
	})
	return float64(n)
}

// traceResidentSession replays one session of a memory-only workload.
func traceResidentSession(tr *tracer, sched *exec.Scheduler, w *coldWorkload, in *coldInput, s int, fail func(error)) (allocMB, artifactBytes float64) {
	csv := in.sessionCSV(s % maxColdSessions)
	var rel *relation.Relation
	tr.do(rootSession, func() {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tr.do("relation.parse", func() {
			var err error
			rel, err = relation.ReadCSVLimited(datasetName, bytes.NewReader(csv), relation.Limits{})
			fail(err)
		})
		runtime.ReadMemStats(&m1)
		allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
		if rel == nil {
			return
		}
		tr.do("task.summary", func() { task.Describe(rel) })
		for _, q := range w.questions {
			artifactBytes += runAndEncode(tr, sched, q, func(ctx context.Context, p task.Params) (any, error) {
				return task.Run(ctx, rel, q.Task, p)
			}, fail)
		}
	})
	if rel == nil {
		return
	}

	tr.do(rootReplay, func() {
		for _, q := range w.questions {
			underGrant(sched, func(ctx context.Context) {
				tr.do(rootReplay+"."+q.Task, func() {
					switch q.Task {
					case "mine-fds":
						replayMineFDs(ctx, tr, rel, fail)
					case "approx-fds":
						tr.do("fd.approx", func() {
							_, err := fd.MineApproxCtx(ctx, rel, taskEps, taskMaxLHS)
							fail(err)
						})
					case "rank-fds":
						replayRankFDs(ctx, tr, rel, fail)
					case "partition":
						var tree *limbo.Tree
						tr.do("limbo.tree_build", func() { tree = tuples.PartitionTreeCtx(ctx, rel, taskMaxLeaves, taskB) })
						var pr *tuples.PartitionResult
						tr.do("tuples.partition", func() { pr = tuples.PartitionFromTree(ctx, rel, tree, 0) })
						// The probes below reuse the partition's leaves, which
						// live in the grant's arenas: run them before release.
						tr.root(rootProbes, func() { probePartition(ctx, tr, rel, pr, fail) })
					case "dedup":
						tr.do("tuples.dedup", func() {
							rep := tuples.FindDuplicatesCtx(ctx, rel, 0, taskB)
							tuples.RefineDuplicates(rel, rep, taskMinSim)
						})
					}
				})
			})
		}
	})

	tr.do(rootProbes, func() {
		underGrant(sched, func(ctx context.Context) {
			tr.do("relation.scan", func() { fail(scanAll(ctx, relation.AsColumns(rel))) })
		})
	})
	return allocMB, artifactBytes
}

func replayMineFDs(ctx context.Context, tr *tracer, rel *relation.Relation, fail func(error)) []fd.FD {
	var fds, cover []fd.FD
	tr.do("fd.tane", func() {
		var err error
		fds, err = fd.DiscoverCtx(ctx, rel)
		fail(err)
	})
	tr.do("fd.mincover", func() { cover = fd.MinCover(fds) })
	return cover
}

// replayRankFDs makes the calls of task's FD-RANK pipeline on an
// instance above the double-clustering switch.
func replayRankFDs(ctx context.Context, tr *tracer, rel *relation.Relation, fail func(error)) {
	cover := replayMineFDs(ctx, tr, rel, fail)
	var assign []int
	var k int
	tr.do("tuples.compress", func() { assign, k = tuples.CompressCtx(ctx, rel, 0, taskB) })
	var objs []limbo.Obj
	tr.do("values.objects", func() { objs = values.ObjectsOverClusters(rel, assign, k) })
	var vc *values.Clustering
	tr.do("values.cluster", func() { vc = values.ClusterCtx(ctx, objs, 0, taskB, rel.M()) })
	var g *attrs.Grouping
	tr.do("attrs.group", func() { g = attrs.GroupCtx(ctx, rel, vc) })
	var ranked []fdrank.Ranked
	tr.do("fdrank.rank", func() { ranked = fdrank.Rank(cover, g, taskPsi) })
	tr.do("measures.rad_rtr", func() {
		for _, rf := range ranked {
			ix := rf.FD.Attrs().Attrs()
			measures.RAD(rel, ix)
			measures.RTR(rel, ix)
		}
	})
	// values.cluster is one call from outside; its two halves are public
	// limbo functions, timed here over the same value objects.
	tr.root(rootProbes, func() {
		var tree *limbo.Tree
		tr.do("limbo.tree_build", func() { tree = limbo.BuildTreeCtx(ctx, objs, 0, taskB) })
		tr.do("limbo.assign", func() { limbo.AssignCtx(ctx, tree.Leaves(), objs) })
	})
}

// probePartition times the two calls PartitionFromTree makes into limbo
// and ib, over the leaves it produced.
func probePartition(ctx context.Context, tr *tracer, rel *relation.Relation, pr *tuples.PartitionResult, fail func(error)) {
	tr.do("ib.agglomerate", func() { limbo.Phase2Ctx(ctx, pr.Leaves, 1) })
	clusters, err := pr.Res.ClustersAt(pr.K)
	if err != nil {
		fail(err)
		return
	}
	reps := limbo.RepsFromClusters(pr.Leaves, clusters)
	objs := tuples.Objects(rel)
	tr.do("limbo.assign", func() { limbo.AssignCtx(ctx, reps, objs) })
}

func sha256Hex(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tracePagedSession replays one session of the out-of-core workload:
// ingest, open, questions through the primitive cache, append, open,
// questions again — then the layer calls behind mine-fds, and the
// storage probes.
func tracePagedSession(cfg runConfig, tr *tracer, sched *exec.Scheduler, prim *primcache.Cache, w *coldWorkload, in *coldInput, s int, fail func(error)) (artifactBytes float64) {
	dir, err := os.MkdirTemp(cfg.outDir, "traced-")
	if err != nil {
		fail(err)
		return 0
	}
	defer os.RemoveAll(dir)
	csv, app := in.sessionCSV(s%maxColdSessions), in.sessionAppend(s%maxColdSessions)
	hash := sha256Hex(csv)
	hash2 := sha256Hex([]byte(hash), app) // the registry's appendHash
	meta := store.DatasetMeta{Hash: hash, Name: datasetName, Source: "upload", Bytes: int64(len(csv)), ID: hash[:12]}
	meta2 := meta
	meta2.Hash, meta2.Epoch, meta2.Bytes = hash2, 1, meta.Bytes+int64(len(app))

	var tbl, tbl2 *colstore.Table
	defer func() {
		if tbl != nil {
			tbl.Close()
		}
		if tbl2 != nil {
			tbl2.Close()
		}
	}()
	var mineArtifact []byte
	ask := func(t *colstore.Table, h string, epoch int, qs []question) {
		for _, q := range qs {
			cols := primcache.Wrap(t, h, epoch, prim)
			artifactBytes += runAndEncode(tr, sched, q, func(ctx context.Context, p task.Params) (any, error) {
				res, err := task.RunColumns(ctx, cols, q.Task, p)
				if err == nil && q.Task == "mine-fds" {
					mineArtifact, _ = json.Marshal(res)
				}
				return res, err
			}, fail)
		}
	}
	tr.do(rootSession, func() {
		var path string
		tr.do("colstore.ingest", func() {
			open := func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(csv)), nil }
			var err error
			path, err = colstore.Ingest(dir, meta, open, relation.Limits{}, colstore.WriteOptions{})
			fail(err)
		})
		if path == "" {
			return
		}
		tr.do("colstore.open", func() {
			var err error
			tbl, err = colstore.Open(path)
			fail(err)
		})
		if tbl == nil {
			return
		}
		tr.do("task.summary", func() {
			_, err := task.DescribeColumns(tbl)
			fail(err)
		})
		ask(tbl, hash, 0, w.questions)

		var path2 string
		tr.do("colstore.append", func() {
			var err error
			path2, err = colstore.Append(dir, meta2, tbl, app, relation.Limits{}, colstore.WriteOptions{})
			fail(err)
		})
		if path2 == "" {
			return
		}
		tr.do("colstore.open", func() {
			var err error
			tbl2, err = colstore.Open(path2)
			fail(err)
		})
		if tbl2 == nil {
			return
		}
		tr.do("task.summary", func() {
			_, err := task.DescribeColumns(tbl2)
			fail(err)
		})
		ask(tbl2, hash2, 1, w.afterAppend)
	})
	if tbl == nil || tbl2 == nil {
		return artifactBytes
	}

	// Each replay starts, like the whole task did, with no partition of
	// this (hash, epoch) in the primitive cache.
	tr.do(rootReplay, func() {
		for i, t := range []*colstore.Table{tbl, tbl2} {
			underGrant(sched, func(ctx context.Context) {
				tr.do(rootReplay+".mine-fds", func() {
					cols := primcache.Wrap(t, t.Meta().Hash, i, primcache.New(64<<20))
					var fds []fd.FD
					tr.do("fd.tane_columns", func() {
						var err error
						fds, err = fd.DiscoverColumns(ctx, cols)
						fail(err)
					})
					tr.do("fd.mincover", func() { fd.MinCover(fds) })
				})
			})
		}
	})

	tr.do(rootProbes, func() {
		underGrant(sched, func(ctx context.Context) {
			fresh, err := colstore.Open(tbl2.Path())
			if err != nil {
				fail(err)
				return
			}
			defer fresh.Close()
			tr.do("colstore.scan_cold", func() { fail(scanAll(ctx, fresh)) })
			tr.do("colstore.scan_warm", func() { fail(scanAll(ctx, fresh)) })

			ps, ok := primcache.Wrap(fresh, hash2, 1, primcache.New(64<<20)).(relation.PartitionSource)
			if !ok {
				fail(fmt.Errorf("primcache wrapper is not a relation.PartitionSource"))
				return
			}
			tr.do("primcache.miss", func() { _, _, err := ps.SinglePartition(0); fail(err) })
			tr.do("primcache.hit", func() { _, _, err := ps.SinglePartition(0); fail(err) })

			// fd.DiscoverDelta is the resident tier's answer to the same
			// append: state mined over the base rows absorbs the new ones.
			rel, err := parseCSV(csv)
			if err != nil {
				fail(err)
				return
			}
			_, st, _, err := fd.DiscoverDelta(ctx, rel, nil)
			if err != nil {
				fail(err)
				return
			}
			ext, _, err := relation.AppendCSV(rel, app, relation.Limits{})
			if err != nil {
				fail(err)
				return
			}
			// On some inputs the appended rows invalidate the state and the
			// call re-mines from scratch; the span then times that.
			tr.do("fd.delta", func() {
				_, _, _, err := fd.DiscoverDelta(ctx, ext, st)
				fail(err)
			})
		})

		sdir, err := os.MkdirTemp(cfg.outDir, "traced-store-")
		if err != nil {
			fail(err)
			return
		}
		defer os.RemoveAll(sdir)
		st, err := store.Open(sdir, store.Options{})
		if err != nil {
			fail(err)
			return
		}
		defer st.Close()
		key := server.Key(hash2, 1, "mine-fds", task.Params{})
		tr.do("store.artifact_put", func() { fail(st.PutArtifact(key, mineArtifact)) })
		tr.do("store.artifact_get", func() {
			if _, ok := st.GetArtifact(key); !ok {
				fail(fmt.Errorf("store.GetArtifact missed the artifact just put"))
			}
		})
	})
	return artifactBytes
}

// traceHot replays cached questions against an in-process server: the
// handler calls the daemon makes for one serve_hot session, without the
// sockets. It also checks each body against the first answer seen.
func traceHot(in *hotInput, sessions int) (*traced, *tracer, error) {
	srv := server.New(server.Config{})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	serve := func(method, path string, body []byte) (int, []byte) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	ids := make([]string, len(in.datasets))
	for i, csv := range in.datasets {
		ds, _, err := srv.Registry().RegisterCSV(datasetName, "upload", csv)
		if err != nil {
			return nil, nil, err
		}
		ids[i] = ds.ID
	}
	submit := func(d, q int) []byte { return submitBody(ids[d], hotQuestions[q]) }
	// Mine every pair once, as the end-to-end set-up does.
	want := map[[2]int][]byte{}
	for d := range ids {
		for q := range hotQuestions {
			code, data := serve("POST", "/v1/jobs", submit(d, q))
			var v jobView
			if err := json.Unmarshal(data, &v); err != nil || (code != http.StatusOK && code != http.StatusAccepted) {
				return nil, nil, fmt.Errorf("in-process submit %s: status %d", hotQuestions[q], code)
			}
			for deadline := time.Now().Add(jobTimeout); v.State == "queued" || v.State == "running"; {
				if time.Now().After(deadline) {
					return nil, nil, fmt.Errorf("in-process job %s still %s", v.ID, v.State)
				}
				time.Sleep(pollInterval)
				_, data = serve("GET", "/v1/jobs/"+v.ID, nil)
				if err := json.Unmarshal(data, &v); err != nil {
					return nil, nil, err
				}
			}
			code, data = serve("GET", "/v1/jobs/"+v.ID+"/result", nil)
			if code != http.StatusOK {
				return nil, nil, fmt.Errorf("in-process result %s: status %d", hotQuestions[q], code)
			}
			raw, err := resultMember(data)
			if err != nil {
				return nil, nil, err
			}
			want[[2]int{d, q}] = raw
		}
	}

	tr := newTracer()
	var firstErr error
	for s := 1; s <= sessions && firstErr == nil; s++ {
		tr.session = s
		op := in.schedule[(s-1)%len(in.schedule)]
		body := submit(op.dataset, op.question)
		tr.do(rootSession, func() {
			var v jobView
			tr.do("server.submit", func() {
				code, data := serve("POST", "/v1/jobs", body)
				if err := json.Unmarshal(data, &v); err != nil || code != http.StatusOK || !v.CacheHit {
					firstErr = fmt.Errorf("in-process cached submit: status %d, cache_hit %t", code, v.CacheHit)
				}
			})
			if firstErr != nil {
				return
			}
			tr.do("server.result", func() {
				code, data := serve("GET", "/v1/jobs/"+v.ID+"/result", nil)
				raw, err := resultMember(data)
				if code != http.StatusOK || err != nil || !bytes.Equal(raw, want[[2]int{op.dataset, op.question}]) {
					firstErr = fmt.Errorf("in-process cached result differs from the mined artifact")
				}
			})
		})
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return &traced{sum: summarize(tr.spans, nil)}, tr, nil
}
