package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"structmine/internal/cluster"
	"structmine/internal/datagen"
	"structmine/internal/relation"
)

// serve_hot: two daemons in one replica set answer questions whose
// artifacts were mined during set-up. No engine runs in the measured
// phase; internal/server and internal/cluster do all the work.
const (
	hotName = "serve_hot"
	hotWhy  = "cached questions against a two-node replica set, a quarter of them proxied: only internal/server and internal/cluster work, no engine runs"

	// hotOpsPerSecond turns the run length into a fixed operation count,
	// like coldWorkload.sessionsPerSecond: the rate this commit sustains
	// on the 2-core sandbox with nproc callers.
	hotOpsPerSecond = 1250
	hotWarmupOps    = 2000

	// Shares of the seeded schedule.
	hotDirectShare  = 0.70
	hotProxiedShare = 0.25 // the remaining 5% list jobs
)

// hotQuestions are the (task, params) pairs mined once per dataset in
// set-up and asked again, as cache hits, in the measured phase.
var hotQuestions = []question{
	{Task: "describe"},
	{Task: "mine-fds"},
	{Task: "approx-fds"},
	{Task: "approx-fds", Params: params(map[string]any{"eps": 0.1, "max_lhs": 2})},
	{Task: "partition", Params: params(map[string]any{"k": 3})},
	{Task: "dedup"},
}

// hotRows are the sizes of the three DBLP projections; the fourth
// dataset is the DB2 sample join.
var hotRows = []int{1000, 2000, 3000}

type hotKind int

const (
	hotDirect hotKind = iota
	hotProxied
	hotList
)

// hotOp is one scheduled operation.
type hotOp struct {
	kind     hotKind
	dataset  int
	question int
}

// hotInput is the generated input of serve_hot: CSV bodies whose first
// header cell is renamed like a cold session's, and the schedule.
type hotInput struct {
	datasets [][]byte
	digitsAt []int
	schedule []hotOp
}

func newHotInput(seed int64, ops int) (*hotInput, error) {
	in := &hotInput{}
	add := func(rel *relation.Relation) error {
		var buf bytes.Buffer
		if err := rel.WriteCSV(&buf); err != nil {
			return err
		}
		split, err := splitCSV(buf.Bytes(), rel.N())
		if err != nil {
			return err
		}
		in.datasets = append(in.datasets, split.base)
		in.digitsAt = append(in.digitsAt, split.digitsAt)
		return nil
	}
	db2, err := datagen.NewDB2Sample()
	if err != nil {
		return nil, err
	}
	if err := add(db2.Joined); err != nil {
		return nil, err
	}
	for i, rows := range hotRows {
		rel := datagen.NewDBLP(datagen.DBLPConfig{
			Tuples: rows, Seed: seed + int64(i),
			MiscFrac: 129.0 / 50000, JournalFrac: 0.28,
		}).Project(datagen.ProjectionAttrs())
		if err := add(rel); err != nil {
			return nil, err
		}
	}
	in.schedule = hotSchedule(seed, ops, len(in.datasets), len(hotQuestions))
	return in, nil
}

// hotSchedule draws the operation sequence from the seed alone.
func hotSchedule(seed int64, ops, datasets, questions int) []hotOp {
	rng := rand.New(rand.NewSource(seed))
	out := make([]hotOp, ops)
	for i := range out {
		op := hotOp{dataset: rng.Intn(datasets), question: rng.Intn(questions)}
		switch u := rng.Float64(); {
		case u < hotDirectShare:
			op.kind = hotDirect
		case u < hotDirectShare+hotProxiedShare:
			op.kind = hotProxied
		default:
			op.kind = hotList
		}
		out[i] = op
	}
	return out
}

// placeOn rewrites the session digits of each dataset until the replica
// set's rendezvous table places it on the wanted node. All datasets live
// on one node because job ids are node-local: a node that both runs its
// own jobs and proxies for a peer answers GET /v1/jobs/{id}/result for a
// proxied id from its own job of the same id. With every dataset on the
// owner, the front node holds no jobs of its own and cannot collide.
func (in *hotInput) placeOn(table *cluster.Table, owner string) error {
	for i, csv := range in.datasets {
		placed := false
		for v := 0; v < maxColdSessions; v++ {
			copy(csv[in.digitsAt[i]:], sessionDigits(v))
			if table.Owner(cluster.RouteKey(sha256Hex(csv))).ID == owner {
				placed = true
				break
			}
		}
		if !placed {
			return fmt.Errorf("no variant of dataset %d is owned by %s", i, owner)
		}
	}
	return nil
}

// hotResult is one operation's outcome.
type hotResult struct {
	kind hotKind
	ms   float64
	err  error
}

// hotRun is everything one end-to-end run of serve_hot observed.
type hotRun struct {
	in      *hotInput
	callers int

	setupS  []float64
	results []hotResult
	wallS   float64
	cpuS    float64 // both nodes
	rssMB   float64 // both nodes
	clientS float64
	owner   promDelta
	front   promDelta
	ownerID string // the owner's node id, the peer label of the front's proxy counter
	status  statusCounts

	proxiedScheduled int
}

// hotCluster is a running two-node replica set with its mined artifacts.
type hotCluster struct {
	front, owner *daemon
	ids          []string   // dataset ids, by dataset
	want         [][][]byte // resultTail of the mined artifact, by dataset and question
}

func (hc *hotCluster) stop() {
	if hc.front != nil {
		hc.front.stop()
	}
	if hc.owner != nil {
		hc.owner.stop()
	}
}

func hotOps(cfg runConfig) (ops, warm int) {
	if cfg.smoke {
		return 1000, 100
	}
	return max(100, int(math.Round(hotOpsPerSecond*cfg.seconds))), hotWarmupOps
}

// hotSetup boots the replica set and brings it to the point where the
// first timed operation can start: health wait, input generation,
// registration, mining every (dataset, question) once, warm-up.
func hotSetup(cfg runConfig, c *http.Client, callers int, sc *statusCounts) (hc *hotCluster, in *hotInput, secs float64, err error) {
	start := time.Now()
	hc = &hotCluster{}
	fail := func(err error) (*hotCluster, *hotInput, float64, error) {
		hc.stop()
		return nil, nil, 0, err
	}
	ports, err := freePorts(2)
	if err != nil {
		return fail(err)
	}
	urls := []string{fmt.Sprintf("http://127.0.0.1:%d", ports[0]), fmt.Sprintf("http://127.0.0.1:%d", ports[1])}
	peers := strings.Join(urls, ",")
	boot := func(i int) (*daemon, error) {
		return startDaemon(cfg.daemonBin, "-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]), "-peers", peers, "-node", urls[i])
	}
	if hc.front, err = boot(0); err != nil {
		return fail(err)
	}
	if hc.owner, err = boot(1); err != nil {
		return fail(err)
	}
	for _, d := range []*daemon{hc.front, hc.owner} {
		if err := waitHealthy(c, d.url(""), 2, 30*time.Second); err != nil {
			return fail(err)
		}
	}
	ops, warm := hotOps(cfg)
	if in, err = newHotInput(cfg.seed, ops+warm); err != nil {
		return fail(err)
	}
	table, err := cluster.NewTable(urls)
	if err != nil {
		return fail(err)
	}
	if err := in.placeOn(table, urls[1]); err != nil {
		return fail(err)
	}
	// Register through the front node: the registration itself is proxied.
	for i, csv := range in.datasets {
		status, data, _, err := call(c, "POST", hc.front.url("/v1/datasets?name="+datasetName), "text/csv", csv)
		if err != nil {
			return fail(err)
		}
		if status != http.StatusCreated {
			return fail(fmt.Errorf("registering dataset %d: status %d: %s", i, status, firstLine(data)))
		}
		var ds datasetView
		if err := json.Unmarshal(data, &ds); err != nil {
			return fail(err)
		}
		hc.ids = append(hc.ids, ds.ID)
	}
	// The owner's own listing must name it as the owner of all of them.
	var listing struct {
		Items []datasetView `json:"items"`
	}
	if err := getJSON(c, hc.owner.url("/v1/datasets"), &listing); err != nil {
		return fail(err)
	}
	if len(listing.Items) != len(in.datasets) {
		return fail(fmt.Errorf("owner lists %d datasets, want %d", len(listing.Items), len(in.datasets)))
	}
	for _, it := range listing.Items {
		if it.Node != urls[1] {
			return fail(fmt.Errorf("dataset %s is owned by %q, want %q", it.ID, it.Node, urls[1]))
		}
	}
	for d, id := range hc.ids {
		hc.want = append(hc.want, nil)
		for _, q := range hotQuestions {
			a, err := ask(c, hc.owner.url(""), id, q, false, sc)
			if err != nil {
				return fail(fmt.Errorf("mining %s on dataset %d: %w", q, d, err))
			}
			tail := resultTail(a.envelope)
			if tail == nil {
				return fail(fmt.Errorf("mining %s on dataset %d: envelope has no result member", q, d))
			}
			hc.want[d] = append(hc.want[d], tail)
		}
	}
	for _, r := range hotLoop(c, hc, in.schedule[:warm], callers, sc) {
		if r.err != nil {
			return fail(fmt.Errorf("warm-up: %w", r.err))
		}
	}
	return hc, in, secondsSince(start), nil
}

// hotLoop runs the operations in a closed loop of `callers` callers:
// caller k performs operations k, k+callers, k+2·callers, … in order.
func hotLoop(c *http.Client, hc *hotCluster, ops []hotOp, callers int, sc *statusCounts) []hotResult {
	results := make([]hotResult, len(ops))
	counts := make([]statusCounts, callers)
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(ops); i += callers {
				results[i] = hotOne(c, hc, ops[i], &counts[k])
			}
		}(k)
	}
	wg.Wait()
	for _, n := range counts {
		sc.s429 += n.s429
		sc.s5xx += n.s5xx
	}
	return results
}

// hotOne performs one operation and checks its output.
func hotOne(c *http.Client, hc *hotCluster, op hotOp, sc *statusCounts) hotResult {
	res := hotResult{kind: op.kind}
	start := time.Now()
	switch op.kind {
	case hotList:
		status, data, _, err := call(c, "GET", hc.owner.url("/v1/jobs?limit=100"), "", nil)
		res.ms = msSince(start)
		if err != nil {
			res.err = err
			return res
		}
		sc.note(status)
		// The page is not decoded: the generator shares two cores with
		// the daemons, and its own CPU comes out of their throughput.
		if status != http.StatusOK || !bytes.Contains(data, []byte(`"state": "done"`)) {
			res.err = fmt.Errorf("list jobs: status %d: %s", status, firstLine(data))
		}
	default:
		node := hc.owner
		if op.kind == hotProxied {
			node = hc.front
		}
		a, err := ask(c, node.url(""), hc.ids[op.dataset], hotQuestions[op.question], true, sc)
		res.ms = msSince(start)
		if err != nil {
			res.err = err
			return res
		}
		if a.polls != 0 {
			res.err = fmt.Errorf("cached %s needed %d polls", a.q, a.polls)
			return res
		}
		if !bytes.Equal(resultTail(a.envelope), hc.want[op.dataset][op.question]) {
			res.err = fmt.Errorf("%s on dataset %d differs from the artifact mined in set-up", a.q, op.dataset)
		}
	}
	return res
}

// runHot performs one end-to-end run of serve_hot.
func runHot(cfg runConfig) (*hotRun, error) {
	run := &hotRun{callers: runtime.NumCPU()}
	c := newClient(run.callers)
	defer c.CloseIdleConnections()

	repeats := setupRepeats
	if cfg.trace || cfg.smoke {
		repeats = 1
	}
	var hc *hotCluster
	for i := 0; i < repeats; i++ {
		if hc != nil {
			hc.stop()
		}
		var secs float64
		var err error
		hc, run.in, secs, err = hotSetup(cfg, c, run.callers, &run.status)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", hotName, err)
		}
		run.setupS = append(run.setupS, secs)
	}
	defer hc.stop()
	run.ownerID = "http://" + hc.owner.addr

	_, warm := hotOps(cfg)
	ops := run.in.schedule[warm:]
	for _, op := range ops {
		if op.kind == hotProxied {
			run.proxiedScheduled++
		}
	}
	var before [2]promText
	var cpu0 [2]float64
	nodes := []*daemon{hc.front, hc.owner}
	for i, d := range nodes {
		var err error
		if before[i], err = scrape(c, d.url("")); err != nil {
			return nil, err
		}
		if cpu0[i], err = d.cpuSeconds(); err != nil {
			return nil, err
		}
	}
	if cfg.corrupt {
		hc.want[0][0] = append([]byte(nil), hc.want[0][0]...)
		flipDigit(hc.want[0][0])
	}
	self0 := selfCPUSeconds()
	start := time.Now()
	run.results = hotLoop(c, hc, ops, run.callers, &run.status)
	run.wallS = secondsSince(start)
	run.clientS = selfCPUSeconds() - self0
	for i, d := range nodes {
		cpu1, err := d.cpuSeconds()
		if err != nil {
			return nil, err
		}
		run.cpuS += cpu1 - cpu0[i]
		rss, err := d.peakRSSMB()
		if err != nil {
			return nil, err
		}
		run.rssMB += rss
		after, err := scrape(c, d.url(""))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			run.front = promDelta{before[i], after}
		} else {
			run.owner = promDelta{before[i], after}
		}
	}
	return run, nil
}

// proxiedRequests is how many requests the front node forwarded to the
// owner over the measured phase, by its own counter.
func (r *hotRun) proxiedRequests() float64 {
	return r.front.sum("structmine_cluster_proxied_requests_total", "peer", r.ownerID)
}

// failed counts the operations that errored or returned a wrong body.
// A proxied-request count that disagrees with the schedule fails the run
// as a whole and is reported by check.
func (r *hotRun) failed() int {
	n := 0
	for _, res := range r.results {
		if res.err != nil {
			n++
		}
	}
	return n
}

// check returns the run-level output failures.
func (r *hotRun) check() []string {
	var out []string
	shown := 0
	for i, res := range r.results {
		if res.err != nil && shown < 5 {
			out = append(out, fmt.Sprintf("op %d: %v", i, res.err))
			shown++
		}
	}
	// Each proxied question is two forwarded requests: submit and result.
	if got, want := r.proxiedRequests(), float64(2*r.proxiedScheduled); got != want {
		out = append(out, fmt.Sprintf("front node forwarded %g requests, the schedule has %g", got, want))
	}
	hits := r.owner.sum("structmined_cache_hits_total")
	misses := r.owner.sum("structmined_cache_misses_total")
	if misses != 0 || hits == 0 {
		out = append(out, fmt.Sprintf("owner's artifact cache saw %g hits and %g misses in the measured phase", hits, misses))
	}
	return out
}
