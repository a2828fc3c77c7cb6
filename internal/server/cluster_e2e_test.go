package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"structmine/internal/cluster"
)

// swapHandler lets a test start an httptest listener (to learn its
// URL) before the Server that will answer on it exists — the cluster
// router needs every peer URL at construction time.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// clusterNode is one replica of a test cluster.
type clusterNode struct {
	srv    *Server
	ts     *httptest.Server
	router *cluster.Router
}

// newTestCluster stands up n replicas on loopback, each in router mode
// with the full peer set.
func newTestCluster(t *testing.T, n int, cfg Config) []clusterNode {
	t.Helper()
	swaps := make([]*swapHandler, n)
	nodes := make([]clusterNode, n)
	peers := make([]string, n)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		nodes[i].ts = httptest.NewServer(swaps[i])
		peers[i] = nodes[i].ts.URL
	}
	for i := range nodes {
		rt, err := cluster.New(peers[i], peers, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Router = rt
		nodes[i].router = rt
		nodes[i].srv = New(c)
		swaps[i].set(nodes[i].srv.Handler())
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.ts.Close()
			n.router.Close()
			func() {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				_ = n.srv.Shutdown(ctx)
			}()
		}
	})
	return nodes
}

// doReq is doJSON with explicit headers, returning the raw response.
func doReq(t *testing.T, method, url string, headers map[string]string, body []byte) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(raw)
}

// proxiedCount extracts this node's proxied-request counter toward a
// peer from a /metrics scrape (0 when the sample is absent).
func proxiedCount(metrics, peer string) float64 {
	prefix := `structmine_cluster_proxied_requests_total{peer="` + peer + `"} `
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, prefix) {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, prefix), "%g", &v); err == nil {
				return v
			}
		}
	}
	return 0
}

// ownerAndOther splits a 2-node cluster by who owns the hash.
func ownerAndOther(t *testing.T, nodes []clusterNode, hash string) (owner, other clusterNode) {
	t.Helper()
	ownerID := nodes[0].router.Owner(hash).ID
	for _, n := range nodes {
		if n.ts.URL == ownerID {
			owner = n
		} else {
			other = n
		}
	}
	if owner.srv == nil || other.srv == nil {
		t.Fatalf("could not split cluster by owner %s", ownerID)
	}
	return owner, other
}

// TestClusterProxyRegisterAndMine is the tentpole proof: a dataset
// registered through either replica lands on its rendezvous owner, is
// minable through the other replica, and the proxied artifact is
// byte-identical to asking the owner directly.
func TestClusterProxyRegisterAndMine(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{Workers: 1})
	csv := db2CSV(t)

	// Register through node 0 — wherever the rendezvous table says the
	// content lives, that is where it registers.
	var ds Dataset
	code, body := doJSON(t, "POST", nodes[0].ts.URL+"/v1/datasets?name=db2", csv, &ds)
	if code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	owner, other := ownerAndOther(t, nodes, ds.Hash)
	if _, ok := owner.srv.reg.Get(ds.ID); !ok {
		t.Fatalf("dataset not on its rendezvous owner %s", owner.ts.URL)
	}
	if _, ok := other.srv.reg.Get(ds.ID); ok {
		t.Fatal("dataset replicated to the non-owner, want owner-only")
	}

	// Registering the same content through the other node is proxied
	// and idempotent: 200, same identity.
	var again Dataset
	if code, body := doJSON(t, "POST", other.ts.URL+"/v1/datasets?name=db2", csv, &again); code != http.StatusOK || again.ID != ds.ID {
		t.Fatalf("re-register via non-owner: %d %s", code, body)
	}

	// The dataset reads identically through both replicas.
	_, _, direct := doReq(t, "GET", owner.ts.URL+"/v1/datasets/"+ds.ID, nil, nil)
	codeP, _, proxied := doReq(t, "GET", other.ts.URL+"/v1/datasets/"+ds.ID, nil, nil)
	if codeP != http.StatusOK || proxied != direct {
		t.Fatalf("proxied dataset read differs (code %d):\n%s\n--- direct\n%s", codeP, proxied, direct)
	}

	// Submit rank-fds through the NON-owner: the job runs on the owner,
	// and polls through the non-owner follow the node tag in the job id.
	var job JobView
	code, body = doJSON(t, "POST", other.ts.URL+"/v1/jobs",
		submitRequest{Dataset: ds.ID, Task: "rank-fds"}, &job)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit via non-owner: %d %s", code, body)
	}
	if _, ok := owner.srv.jobs.Get(job.ID); !ok {
		t.Fatalf("job %s did not land on the dataset owner", job.ID)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var v JobView
		if code, body := doJSON(t, "GET", other.ts.URL+"/v1/jobs/"+job.ID, nil, &v); code != http.StatusOK {
			t.Fatalf("poll via non-owner: %d %s", code, body)
		} else if v.State.Terminal() {
			if v.State != StateDone {
				t.Fatalf("job %s: %s (%s)", job.ID, v.State, v.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", job.ID)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The artifact fetched through the proxy is byte-identical to the
	// owner's direct answer.
	codeD, _, resultDirect := doReq(t, "GET", owner.ts.URL+"/v1/jobs/"+job.ID+"/result", nil, nil)
	codeV, _, resultVia := doReq(t, "GET", other.ts.URL+"/v1/jobs/"+job.ID+"/result", nil, nil)
	if codeD != http.StatusOK || codeV != http.StatusOK {
		t.Fatalf("result codes: direct %d, proxied %d", codeD, codeV)
	}
	if resultVia != resultDirect {
		t.Fatal("proxied rank-fds artifact is not byte-identical to the owner's")
	}

	// Every job-id endpoint routes the same way: the trace endpoint
	// shares routeJob.
	if code, _, _ := doReq(t, "GET", other.ts.URL+"/v1/jobs/"+job.ID+"/trace", nil, nil); code != http.StatusOK {
		t.Fatalf("trace via non-owner: %d", code)
	}
}

// TestClusterHopLoopGuard pins the one-hop invariant: a request that
// already crossed a proxy hop is answered from local state even when
// this node does not own the key — no second hop, no loop.
func TestClusterHopLoopGuard(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{})
	csv := db2CSV(t)
	var ds Dataset
	if code, body := doJSON(t, "POST", nodes[0].ts.URL+"/v1/datasets?name=db2", csv, &ds); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	_, other := ownerAndOther(t, nodes, ds.Hash)

	// Without the hop header the non-owner proxies (200); with it, the
	// non-owner must answer from its own empty registry: 404.
	if code, _, _ := doReq(t, "GET", other.ts.URL+"/v1/datasets/"+ds.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("proxied get: %d, want 200", code)
	}
	code, _, body := doReq(t, "GET", other.ts.URL+"/v1/datasets/"+ds.ID,
		map[string]string{cluster.HopHeader: "1"}, nil)
	if code != http.StatusNotFound || !strings.Contains(body, CodeDatasetNotFound) {
		t.Fatalf("hopped get on non-owner: %d %s, want local 404", code, body)
	}
}

// TestClusterPeerUnavailable pins the 503 envelope: when a dataset's
// owner is down, the surviving replica answers 503 peer_unavailable
// rather than hanging or mis-serving.
func TestClusterPeerUnavailable(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{})
	csv := db2CSV(t)
	var ds Dataset
	if code, body := doJSON(t, "POST", nodes[0].ts.URL+"/v1/datasets?name=db2", csv, &ds); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	owner, other := ownerAndOther(t, nodes, ds.Hash)
	owner.ts.Close()

	// First request hits the dead peer (transport error → 503), later
	// ones shortcut on the unhealthy mark; both carry the envelope.
	for i := 0; i < 2; i++ {
		code, _, body := doReq(t, "GET", other.ts.URL+"/v1/datasets/"+ds.ID, nil, nil)
		if code != http.StatusServiceUnavailable || !strings.Contains(body, CodePeerUnavailable) {
			t.Fatalf("request %d with owner down: %d %s, want 503 %s", i, code, body, CodePeerUnavailable)
		}
	}

	// The survivor's own surfaces stay healthy and node-local.
	var h healthz
	if code, _ := doJSON(t, "GET", other.ts.URL+"/v1/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz on survivor: %d", code)
	}
	if h.Node != other.ts.URL {
		t.Fatalf("healthz node = %q, want the answering node %q", h.Node, other.ts.URL)
	}
	if h.Cluster == nil || h.Cluster.Peers != 2 || h.Cluster.HealthyPeers != 1 {
		t.Fatalf("healthz cluster = %+v, want 2 peers / 1 healthy", h.Cluster)
	}
}

// TestClusterMetricsNodeLocal is the satellite bugfix guard: /metrics
// and /v1/healthz report the answering node's state even in router
// mode, and the cluster families carry this node's view (its proxied
// counts, its peers' health), never a peer's registry.
func TestClusterMetricsNodeLocal(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{})
	csv := db2CSV(t)
	var ds Dataset
	if code, body := doJSON(t, "POST", nodes[0].ts.URL+"/v1/datasets?name=db2", csv, &ds); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	owner, other := ownerAndOther(t, nodes, ds.Hash)

	// Drive one proxied read through the non-owner.
	if code, _, _ := doReq(t, "GET", other.ts.URL+"/v1/datasets/"+ds.ID, nil, nil); code != http.StatusOK {
		t.Fatal("proxied read failed")
	}

	_, _, otherMetrics := doReq(t, "GET", other.ts.URL+"/v1/metrics", nil, nil)
	_, _, ownerMetrics := doReq(t, "GET", owner.ts.URL+"/v1/metrics", nil, nil)

	// The proxying node counted the hop (the initial register may have
	// hopped too, so >= 1), labeled with the peer it forwarded to; the
	// owner — which forwarded nothing — exports no count toward the
	// other node.
	if n := proxiedCount(otherMetrics, owner.ts.URL); n < 1 {
		t.Fatalf("non-owner proxied count toward owner = %g, want >= 1", n)
	}
	if n := proxiedCount(ownerMetrics, other.ts.URL); n != 0 {
		t.Fatalf("owner counted %g proxied requests it never made", n)
	}
	for _, m := range []string{otherMetrics, ownerMetrics} {
		for _, fam := range []string{
			"structmine_cluster_proxied_requests_total",
			"structmine_cluster_peer_unhealthy",
			"structmine_cluster_owner_moves_total",
		} {
			if !strings.Contains(m, fam) {
				t.Fatalf("metrics missing cluster family %s", fam)
			}
		}
	}

	// A node must never label cluster metrics with itself as a peer.
	if strings.Contains(otherMetrics, `peer_unhealthy{peer="`+other.ts.URL+`"}`) {
		t.Fatal("node exports a peer_unhealthy gauge for itself")
	}

	// Healthz through each node names that node.
	for _, n := range []clusterNode{owner, other} {
		var h healthz
		if code, _ := doJSON(t, "GET", n.ts.URL+"/v1/healthz", nil, &h); code != http.StatusOK || h.Node != n.ts.URL {
			t.Fatalf("healthz via %s: code %d node %q", n.ts.URL, code, h.Node)
		}
	}
}

// TestClusterOwnerMoves pins the owner-move counter: a dataset held
// locally against the rendezvous table's choice (here: planted via a
// hopped register, as after a topology change) is served locally and
// counted.
func TestClusterOwnerMoves(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{})
	csv := db2CSV(t)

	// Find which node does NOT own this content, and plant the dataset
	// there with a hopped register (hop = answer locally, no proxy).
	var probe Dataset
	if code, body := doJSON(t, "POST", nodes[0].ts.URL+"/v1/datasets?name=db2", csv, &probe); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	_, other := ownerAndOther(t, nodes, probe.Hash)
	code, _, _ := doReq(t, "POST", other.ts.URL+"/v1/datasets?name=db2", map[string]string{
		cluster.HopHeader: "1", "Content-Type": "text/csv",
	}, csv)
	if code != http.StatusCreated {
		t.Fatalf("hopped register on non-owner: %d", code)
	}

	// Reads through the non-owner now serve locally (local-first) and
	// count an owner move.
	if code, _, _ := doReq(t, "GET", other.ts.URL+"/v1/datasets/"+probe.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("local-first read: %d", code)
	}
	_, _, metrics := doReq(t, "GET", other.ts.URL+"/v1/metrics", nil, nil)
	if !strings.Contains(metrics, "structmine_cluster_owner_moves_total 1") {
		t.Fatal("owner move not counted")
	}
}

// TestClusterJobIDsAreNodeQualified pins the router-mode job-id
// contract. Job sequences are node-local, so both nodes mint sequence
// number 1; the ids must still differ (each carries its node's tag), and
// each id must return its own job's artifact from either node — a node
// that runs its own jobs and proxies for a peer must never answer a
// peer's id from its own job of the same number. A proxied question
// costs exactly two proxied requests: the submission and the result.
func TestClusterJobIDsAreNodeQualified(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{Workers: 1})

	// One dataset per node: vary a cell until the rendezvous table has
	// placed one on each replica.
	type placed struct {
		node, peer clusterNode
		ds         Dataset
		jobID      string
		direct     string
	}
	var jobs []placed
	for i := 0; len(jobs) < 2 && i < 64; i++ {
		csv := fmt.Sprintf("A,B,C\n1,x,%d\n2,y,%d\n3,x,%d\n4,z,%d\n", i, i, i+1, i)
		sum := sha256.Sum256([]byte(csv))
		owner, other := ownerAndOther(t, nodes, hex.EncodeToString(sum[:]))
		if len(jobs) == 1 && owner.ts.URL == jobs[0].node.ts.URL {
			continue
		}
		var ds Dataset
		if code, body := doJSON(t, "POST", owner.ts.URL+"/v1/datasets?name=d", []byte(csv), &ds); code != http.StatusCreated {
			t.Fatalf("register: %d %s", code, body)
		}
		jobs = append(jobs, placed{node: owner, peer: other, ds: ds})
	}
	if len(jobs) != 2 {
		t.Fatal("could not place one dataset on each node")
	}

	// Each node mines its own dataset: both mint sequence number 1.
	for i := range jobs {
		j := &jobs[i]
		var v JobView
		if code, body := doJSON(t, "POST", j.node.ts.URL+"/v1/jobs",
			submitRequest{Dataset: j.ds.ID, Task: "describe"}, &v); code != http.StatusAccepted {
			t.Fatalf("submit on %s: %d %s", j.node.ts.URL, code, body)
		}
		if !strings.HasSuffix(v.ID, "-000001") {
			t.Fatalf("first job on %s is %s, want sequence number 1", j.node.ts.URL, v.ID)
		}
		if got := waitJob(t, j.node.ts, v.ID); got.State != StateDone {
			t.Fatalf("job %s: %s (%s)", v.ID, got.State, got.Error)
		}
		j.jobID = v.ID
		_, _, j.direct = doReq(t, "GET", j.node.ts.URL+"/v1/jobs/"+v.ID+"/result", nil, nil)
		if !strings.Contains(j.direct, `"dataset": "`+j.ds.ID+`"`) {
			t.Fatalf("direct result of %s is not for dataset %s: %s", v.ID, j.ds.ID, j.direct)
		}
	}
	if jobs[0].jobID == jobs[1].jobID {
		t.Fatalf("both nodes minted %s: job ids are not node-qualified", jobs[0].jobID)
	}

	// Each id answers with its own artifact from either node.
	for _, j := range jobs {
		before := proxiedCount(scrapeMetrics(t, j.peer.ts.URL), j.node.ts.URL)
		code, _, viaPeer := doReq(t, "GET", j.peer.ts.URL+"/v1/jobs/"+j.jobID+"/result", nil, nil)
		if code != http.StatusOK || viaPeer != j.direct {
			t.Fatalf("job %s asked through %s: %d\n%s\nwant its own artifact\n%s",
				j.jobID, j.peer.ts.URL, code, viaPeer, j.direct)
		}
		if got := proxiedCount(scrapeMetrics(t, j.peer.ts.URL), j.node.ts.URL) - before; got != 1 {
			t.Fatalf("proxied result fetch cost %g proxied requests, want 1", got)
		}
		if code, body := doJSON(t, "GET", j.peer.ts.URL+"/v1/jobs/"+j.jobID, nil, nil); code != http.StatusOK ||
			!strings.Contains(body, j.ds.ID) {
			t.Fatalf("poll of %s through the peer: %d %s", j.jobID, code, body)
		}
	}

	// A question asked through the non-owner is a cache hit on the owner
	// and costs two proxied requests, submit and result, no scatter.
	j := jobs[0]
	before := proxiedCount(scrapeMetrics(t, j.peer.ts.URL), j.node.ts.URL)
	var hit JobView
	if code, body := doJSON(t, "POST", j.peer.ts.URL+"/v1/jobs",
		submitRequest{Dataset: j.ds.ID, Task: "describe"}, &hit); code != http.StatusOK || !hit.CacheHit {
		t.Fatalf("proxied resubmit: %d %s", code, body)
	}
	if owner, ok := j.peer.router.JobOwner(hit.ID); !ok || owner.ID != j.node.ts.URL {
		t.Fatalf("proxied job id %s does not name its owner %s", hit.ID, j.node.ts.URL)
	}
	if code, _, _ := doReq(t, "GET", j.peer.ts.URL+"/v1/jobs/"+hit.ID+"/result", nil, nil); code != http.StatusOK {
		t.Fatalf("proxied result: %d", code)
	}
	if got := proxiedCount(scrapeMetrics(t, j.peer.ts.URL), j.node.ts.URL) - before; got != 2 {
		t.Fatalf("proxied question cost %g proxied requests, want 2", got)
	}

	// An id with no tag of this replica set is nobody's but the asked
	// node's: a plain local 404, no proxying.
	for _, id := range []string{"job-000001", "job-ffffff-000001", "nope"} {
		if code, body := doJSON(t, "GET", j.peer.ts.URL+"/v1/jobs/"+id, nil, nil); code != http.StatusNotFound {
			t.Fatalf("GET /v1/jobs/%s = %d %s, want 404", id, code, body)
		}
	}
}
