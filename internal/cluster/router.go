package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"structmine/internal/obs"
)

// HopHeader marks a proxied request. A node receiving a request that
// already carries it never proxies again: it answers from local state
// (or 404s), so a stale routing table on one node cannot create a proxy
// loop — every request travels at most one hop.
const HopHeader = "X-Structmine-Hop"

// ErrPeerUnavailable reports that the rendezvous owner of a dataset is
// currently unreachable; handlers map it to a 503 peer_unavailable
// envelope.
var ErrPeerUnavailable = errors.New("cluster: dataset owner is unavailable")

// forwardedHeaders are the request headers a proxied request carries to
// the owner; everything else is connection-local.
var forwardedHeaders = []string{"Content-Type", "X-Tenant", "X-Priority"}

// Router gives one node the cluster view: who it is, who its peers
// are, which node owns a routing key, whether that node is healthy, and
// how to forward a request there. A Router is safe for concurrent use.
type Router struct {
	self   Node
	table  *Table
	prober *Prober
	client *http.Client

	// byTag resolves the node tag a job id carries (JobTag) to the node
	// that minted it.
	byTag map[string]Node

	// metrics, registered once into the owning server's registry.
	metricsOnce sync.Once
	proxied     *obs.CounterVec // structmine_cluster_proxied_requests_total{peer}
	unhealthy   *obs.GaugeVec   // structmine_cluster_peer_unhealthy{peer}
	ownerMoves  *obs.Counter    // structmine_cluster_owner_moves_total
}

// JobTag is the node qualifier inside job ids minted in router mode
// ("job-<tag>-<seq>"): the first 6 hex digits of SHA-256(node id). Job
// sequences are node-local, so without it two nodes mint the same ids
// and a proxying node cannot tell a peer's job from its own.
func JobTag(nodeID string) string {
	sum := sha256.Sum256([]byte(nodeID))
	return hex.EncodeToString(sum[:3])
}

// New builds the node's router. self must be one of peers (the flag
// lists every replica, this node included); probeInterval tunes the
// health prober (0 = default). Call Close to stop the prober.
func New(self string, peers []string, probeInterval time.Duration) (*Router, error) {
	selfURL, err := NormalizeURL(self)
	if err != nil {
		return nil, err
	}
	table, err := NewTable(peers)
	if err != nil {
		return nil, err
	}
	if !table.Contains(selfURL) {
		return nil, fmt.Errorf("cluster: self address %s is not in the peer set", selfURL)
	}
	r := &Router{
		self:   Node{ID: selfURL, URL: selfURL},
		table:  table,
		client: &http.Client{Timeout: 30 * time.Second},
		byTag:  map[string]Node{},
	}
	for _, n := range table.Nodes() {
		tag := JobTag(n.ID)
		if prior, dup := r.byTag[tag]; dup {
			return nil, fmt.Errorf("cluster: nodes %s and %s share job tag %s", prior.ID, n.ID, tag)
		}
		r.byTag[tag] = n
	}
	r.prober = NewProber(table.Nodes(), probeInterval)
	r.prober.Start()
	return r, nil
}

// Close stops the health prober.
func (r *Router) Close() { r.prober.Stop() }

// Self returns this node's identity.
func (r *Router) Self() Node { return r.self }

// Table returns the rendezvous table.
func (r *Router) Table() *Table { return r.table }

// Prober returns the health tracker (exposed for tests and healthz).
func (r *Router) Prober() *Prober { return r.prober }

// Owner returns the rendezvous owner of a dataset id or hash.
func (r *Router) Owner(idOrHash string) Node {
	return r.table.Owner(RouteKey(idOrHash))
}

// OwnsLocally reports whether this node is the rendezvous owner.
func (r *Router) OwnsLocally(idOrHash string) bool {
	return r.Owner(idOrHash).ID == r.self.ID
}

// NoteOwnerMove records serving a dataset from local state although the
// rendezvous table names another owner (a dataset registered before the
// cluster was configured, or placed by an operator-side path
// registration).
func (r *Router) NoteOwnerMove() {
	if r.ownerMoves != nil {
		r.ownerMoves.Inc()
	}
}

// JobOwner returns the node that minted a job id, read off the id's
// node tag. It reports false for ids without a tag of this replica set
// (single-node ids such as "job-000001" recovered from an older
// journal), which only the local node can know.
func (r *Router) JobOwner(jobID string) (Node, bool) {
	parts := strings.Split(jobID, "-")
	if len(parts) != 3 || parts[0] != "job" {
		return Node{}, false
	}
	n, ok := r.byTag[parts[1]]
	return n, ok
}

// Hopped reports whether the request already crossed a proxy hop (and
// therefore must be answered from local state).
func Hopped(req *http.Request) bool { return req.Header.Get(HopHeader) != "" }

// relayedHeaders are the response headers a proxied answer carries back
// to the client unchanged.
var relayedHeaders = []string{"Content-Type", "Retry-After"}

// Forward proxies the request (with the given body) to a peer and
// relays the response verbatim — status, content headers and body bytes
// are exactly what the owner produced, so a proxied artifact is
// byte-identical to a direct request. The hop header travels with the
// request, so the peer answers from local state. It reports whether a
// response was written: on a transport failure nothing is, and the peer
// is marked unhealthy so the caller can 503.
func (r *Router) Forward(w http.ResponseWriter, req *http.Request, peer Node, body []byte) bool {
	out, err := http.NewRequestWithContext(req.Context(), req.Method,
		peer.URL+req.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return false
	}
	for _, h := range forwardedHeaders {
		if v := req.Header.Get(h); v != "" {
			out.Header.Set(h, v)
		}
	}
	out.Header.Set(HopHeader, "1")
	resp, err := r.client.Do(out)
	var data []byte
	if err == nil {
		data, err = readResponse(req.Method, resp)
		resp.Body.Close()
	}
	if err != nil {
		r.prober.MarkUnhealthy(peer.ID)
		r.setUnhealthyGauge(peer.ID, true)
		return false
	}
	if r.proxied != nil {
		r.proxied.With(peer.ID).Inc()
	}
	for _, h := range relayedHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	length := int64(len(data))
	if req.Method == http.MethodHead {
		length = resp.ContentLength // what a GET would carry; -1 if the peer declared none
	}
	if length >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(length, 10))
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(data)
	return true
}

// readResponse reads a peer's response body: into one buffer of the
// declared length when the peer sent one (every job view, list page and
// result does), else by io.ReadAll, whose buffer starts small and
// doubles. A response to HEAD declares a length but carries no body.
func readResponse(method string, resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && method != http.MethodHead {
		data := make([]byte, n)
		_, err := io.ReadFull(resp.Body, data)
		return data, err
	}
	return io.ReadAll(resp.Body)
}

// RegisterMetrics wires the cluster metric families into a registry
// (the owning server's): proxied request counts and unhealthy flags per
// peer, owner moves for the node. Idempotent.
func (r *Router) RegisterMetrics(m *obs.Registry) {
	r.metricsOnce.Do(func() {
		r.proxied = m.CounterVec("structmine_cluster_proxied_requests_total",
			"Requests this node proxied to a peer, by peer.", "peer")
		r.unhealthy = m.GaugeVec("structmine_cluster_peer_unhealthy",
			"1 while the peer is believed unreachable, 0 while healthy.", "peer")
		r.ownerMoves = m.Counter("structmine_cluster_owner_moves_total",
			"Requests served from local state although the rendezvous table names another owner.")
		for _, n := range r.table.Nodes() {
			if n.ID != r.self.ID {
				r.unhealthy.With(n.ID).Set(0)
			}
		}
		r.prober.OnChange(func(peer string, healthy bool) {
			r.setUnhealthyGauge(peer, !healthy)
		})
	})
}

func (r *Router) setUnhealthyGauge(peer string, bad bool) {
	if r.unhealthy == nil {
		return
	}
	if bad {
		r.unhealthy.With(peer).Set(1)
	} else {
		r.unhealthy.With(peer).Set(0)
	}
}
