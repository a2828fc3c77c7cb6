package server

import (
	"net/http"

	"structmine/internal/cluster"
)

// Cluster routing glue. With Config.Router set every node serves in
// router mode: dataset-scoped requests whose rendezvous owner is
// another replica are proxied there over the same /v1 wire protocol,
// and job-id requests go to the node whose tag the id carries. Three
// invariants:
//
//   - local first: a dataset registered on this node is always served
//     from local state (counted as an owner move when the rendezvous
//     table names another node), so routing-table drift degrades to
//     extra hops, never to wrong answers;
//   - one hop max: a request already carrying the hop header is
//     answered locally no matter what, so no proxy loop is possible;
//   - node-local surfaces stay local: /v1/healthz and /v1/metrics
//     always report this node, never a peer.

// routeDataset applies cluster routing for a dataset-scoped request.
// It reports true when the request was fully handled here (proxied to
// the owner, or answered 503 because the owner is down); the caller
// then returns without touching local state. body is the original
// request body to forward (nil for GETs).
func (s *Server) routeDataset(w http.ResponseWriter, r *http.Request, idOrHash string, body []byte) bool {
	rt := s.cfg.Router
	if rt == nil || cluster.Hopped(r) {
		return false
	}
	if _, ok := s.reg.Get(idOrHash); ok {
		if !rt.OwnsLocally(idOrHash) {
			rt.NoteOwnerMove()
		}
		return false
	}
	owner := rt.Owner(idOrHash)
	if owner.ID == rt.Self().ID {
		return false // we own it (registered or not) — answer locally
	}
	s.proxyTo(w, r, owner, body)
	return true
}

// proxyTo relays the request to a peer, or answers 503 peer_unavailable
// when the peer is (or turns out to be) down.
func (s *Server) proxyTo(w http.ResponseWriter, r *http.Request, peer cluster.Node, body []byte) {
	rt := s.cfg.Router
	if !rt.Prober().Healthy(peer.ID) || !rt.Forward(w, r, peer, body) {
		writeErrFor(w, cluster.ErrPeerUnavailable)
	}
}

// routeJob applies cluster routing for a job-id request. Job ids
// minted in router mode carry their node's tag (cluster.JobTag), so the
// owner is read off the id: a peer's id is proxied there, our own — or
// an untagged id, which no peer can know — is answered locally (which
// for an unknown id is the usual 404). It reports true when the request
// was fully handled here.
func (s *Server) routeJob(w http.ResponseWriter, r *http.Request, jobID string) bool {
	rt := s.cfg.Router
	if rt == nil || cluster.Hopped(r) {
		return false
	}
	owner, ok := rt.JobOwner(jobID)
	if !ok || owner.ID == rt.Self().ID {
		return false
	}
	s.proxyTo(w, r, owner, nil)
	return true
}

// nodeID returns this node's cluster identity ("" outside router
// mode) — the value of healthz's node field and the owner labels on
// list items.
func (s *Server) nodeID() string {
	if s.cfg.Router == nil {
		return ""
	}
	return s.cfg.Router.Self().ID
}

// ownerOf returns the rendezvous owner's id for a dataset id or hash
// ("" outside router mode).
func (s *Server) ownerOf(idOrHash string) string {
	if s.cfg.Router == nil {
		return ""
	}
	return s.cfg.Router.Owner(idOrHash).ID
}
