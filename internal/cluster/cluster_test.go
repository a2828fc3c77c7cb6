package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// randomKeys returns n hex routing keys derived from a seeded stream,
// shaped like real dataset hashes.
func randomKeys(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		var b [16]byte
		rng.Read(b[:])
		sum := sha256.Sum256(b[:])
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}

func peerSet(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8421", i+1)
	}
	return out
}

// TestPropSingleOwner: for a fixed peer set, every key maps to exactly
// one owner, the mapping is stable across repeated calls, and it does
// not depend on the order the peers were listed in.
func TestPropSingleOwner(t *testing.T) {
	peers := peerSet(5)
	tab, err := NewTable(peers)
	if err != nil {
		t.Fatal(err)
	}
	// Same peers, reversed declaration order (and one duplicated): the
	// table must be identical.
	rev := make([]string, 0, len(peers)+1)
	for i := len(peers) - 1; i >= 0; i-- {
		rev = append(rev, peers[i])
	}
	rev = append(rev, peers[0])
	tab2, err := NewTable(rev)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range randomKeys(2000, 1) {
		rk := RouteKey(key)
		owner := tab.Owner(rk)
		if again := tab.Owner(rk); again.ID != owner.ID {
			t.Fatalf("owner of %s unstable: %s then %s", rk, owner.ID, again.ID)
		}
		if other := tab2.Owner(rk); other.ID != owner.ID {
			t.Fatalf("owner of %s depends on peer order: %s vs %s", rk, owner.ID, other.ID)
		}
		// The short id, the extended id, and the full hash all route to
		// the same owner.
		if o := tab.Owner(RouteKey(key[:RouteKeyLen])); o.ID != owner.ID {
			t.Fatalf("short id of %s routes to %s, hash to %s", key, o.ID, owner.ID)
		}
		if o := tab.Owner(RouteKey(key[:RouteKeyLen+4])); o.ID != owner.ID {
			t.Fatalf("extended id of %s routes differently", key)
		}
	}
}

// TestPropBalancedOwnership: rendezvous hashing spreads keys roughly
// evenly — no node owns more than twice or less than half its fair
// share over a large key sample (a very loose bound; HRW on SHA-256 is
// much tighter, but the test must not flake).
func TestPropBalancedOwnership(t *testing.T) {
	peers := peerSet(4)
	tab, err := NewTable(peers)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8000
	counts := map[string]int{}
	for _, key := range randomKeys(n, 2) {
		counts[tab.Owner(RouteKey(key)).ID]++
	}
	fair := n / len(peers)
	for _, p := range tab.Nodes() {
		c := counts[p.ID]
		if c < fair/2 || c > fair*2 {
			t.Errorf("node %s owns %d of %d keys (fair share %d)", p.ID, c, n, fair)
		}
	}
}

// TestPropMinimalMoves: membership changes move only the keys that must
// move. Removing a peer reassigns exactly the keys it owned (every
// other key keeps its owner); adding a peer steals keys only for the
// new node (no key moves between surviving nodes).
func TestPropMinimalMoves(t *testing.T) {
	peers := peerSet(5)
	full, err := NewTable(peers)
	if err != nil {
		t.Fatal(err)
	}
	keys := randomKeys(4000, 3)

	// Single-peer removal: drop peers[2].
	removed := peers[2]
	smaller, err := NewTable(append(append([]string{}, peers[:2]...), peers[3:]...))
	if err != nil {
		t.Fatal(err)
	}
	normRemoved, _ := NormalizeURL(removed)
	moved := 0
	for _, key := range keys {
		rk := RouteKey(key)
		before, after := full.Owner(rk), smaller.Owner(rk)
		if before.ID == normRemoved {
			moved++
			continue // must move somewhere; anywhere is legal
		}
		if after.ID != before.ID {
			t.Fatalf("key %s moved %s -> %s although its owner survived", rk, before.ID, after.ID)
		}
	}
	if moved == 0 {
		t.Fatal("removed peer owned no keys — the sample cannot exercise the property")
	}

	// Single-peer addition: smaller + new node. Keys may move only to
	// the new node.
	added := "http://10.0.0.99:8421"
	larger, err := NewTable(append(append([]string{}, peers[:2]...), append([]string{added}, peers[3:]...)...))
	if err != nil {
		t.Fatal(err)
	}
	normAdded, _ := NormalizeURL(added)
	stole := 0
	for _, key := range keys {
		rk := RouteKey(key)
		before, after := smaller.Owner(rk), larger.Owner(rk)
		if after.ID == before.ID {
			continue
		}
		if after.ID != normAdded {
			t.Fatalf("key %s moved %s -> %s on an unrelated node's join", rk, before.ID, after.ID)
		}
		stole++
	}
	if stole == 0 {
		t.Fatal("added peer stole no keys — the sample cannot exercise the property")
	}
}

func TestRouteKey(t *testing.T) {
	cases := []struct{ in, want string }{
		{"77ABE84CC3F78FB061087EFE", "77abe84cc3f7"},
		{"77abe84cc3f7", "77abe84cc3f7"},
		{"short", "short"},
		{"", ""},
	}
	for _, c := range cases {
		if got := RouteKey(c.in); got != c.want {
			t.Errorf("RouteKey(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormalizeURL(t *testing.T) {
	good := map[string]string{
		"127.0.0.1:8421":          "http://127.0.0.1:8421",
		"http://127.0.0.1:8421/":  "http://127.0.0.1:8421",
		"https://db.example:9000": "https://db.example:9000",
		" http://a:1 ":            "http://a:1",
	}
	for in, want := range good {
		got, err := NormalizeURL(in)
		if err != nil || got != want {
			t.Errorf("NormalizeURL(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "ftp://x:1", "http://a:1/v1", "http://a:1?x=1"} {
		if _, err := NormalizeURL(bad); err == nil {
			t.Errorf("NormalizeURL(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestNewRejectsSelfOutsidePeers(t *testing.T) {
	if _, err := New("http://10.0.0.9:1", peerSet(2), 0); err == nil {
		t.Fatal("self outside the peer set must be rejected")
	}
	r, err := New(peerSet(2)[0], peerSet(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
}

// TestJobOwnerFromTag: a job id minted in router mode names its node,
// and ids without a tag of this replica set name nobody.
func TestJobOwnerFromTag(t *testing.T) {
	r, err := New(peerSet(3)[0], peerSet(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, n := range r.Table().Nodes() {
		id := fmt.Sprintf("job-%s-%06d", JobTag(n.ID), 7)
		if got, ok := r.JobOwner(id); !ok || got != n {
			t.Fatalf("JobOwner(%s) = %+v, %v; want %+v", id, got, ok, n)
		}
	}
	for _, id := range []string{"job-000007", "job-zzzzzz-000007", "job--", "task-" + JobTag(r.Self().ID) + "-1", ""} {
		if n, ok := r.JobOwner(id); ok {
			t.Fatalf("JobOwner(%q) = %+v, want no owner", id, n)
		}
	}
}
