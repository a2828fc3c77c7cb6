package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// peerHealth is the mutable health record of one peer, guarded by the
// prober's mutex.
type peerHealth struct {
	healthy  bool
	failures int       // consecutive probe failures (drives the backoff)
	next     time.Time // earliest next probe (zero = probe on next tick)
}

// Prober tracks peer liveness. Peers start healthy (optimistic, so a
// cold cluster routes immediately); a failed probe or a failed proxied
// request marks the peer unhealthy, after which probes retry with
// exponential backoff until the peer answers its health endpoint again.
type Prober struct {
	client   *http.Client
	interval time.Duration // base probe cadence for unhealthy peers
	maxWait  time.Duration // backoff ceiling

	mu    sync.Mutex
	peers map[string]*peerHealth

	// onChange, when set, observes every health transition (metrics).
	onChange func(peer string, healthy bool)

	stop chan struct{}
	done chan struct{}
}

// NewProber tracks the given peers. interval is the base probe cadence
// (default 2s); the per-peer backoff doubles from it up to 16x.
func NewProber(peers []Node, interval time.Duration) *Prober {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	p := &Prober{
		client:   &http.Client{Timeout: interval},
		interval: interval,
		maxWait:  16 * interval,
		peers:    map[string]*peerHealth{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, n := range peers {
		p.peers[n.ID] = &peerHealth{healthy: true}
	}
	return p
}

// OnChange registers a health-transition observer. Call before Start.
func (p *Prober) OnChange(fn func(peer string, healthy bool)) { p.onChange = fn }

// Start launches the background probe loop. Stop releases it.
func (p *Prober) Start() {
	go p.loop()
}

// Stop terminates the probe loop and waits for it to exit.
func (p *Prober) Stop() {
	close(p.stop)
	<-p.done
}

func (p *Prober) loop() {
	defer close(p.done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.probeDue()
		}
	}
}

// probeDue probes every peer whose backoff window has elapsed. Healthy
// peers are not probed at all — their first failed proxied request
// flips them unhealthy — so steady-state background traffic is zero.
func (p *Prober) probeDue() {
	now := time.Now()
	var due []string
	p.mu.Lock()
	for id, h := range p.peers {
		if !h.healthy && !now.Before(h.next) {
			due = append(due, id)
		}
	}
	p.mu.Unlock()
	for _, id := range due {
		p.probe(id)
	}
}

// probe checks one peer's /v1/healthz and records the outcome.
func (p *Prober) probe(peer string) {
	ctx, cancel := context.WithTimeout(context.Background(), p.client.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/healthz", nil)
	if err != nil {
		p.record(peer, false)
		return
	}
	resp, err := p.client.Do(req)
	if err != nil {
		p.record(peer, false)
		return
	}
	resp.Body.Close()
	p.record(peer, resp.StatusCode == http.StatusOK)
}

// record applies one observation (probe result or proxied-request
// outcome) to the peer's health state.
func (p *Prober) record(peer string, ok bool) {
	p.mu.Lock()
	h, known := p.peers[peer]
	if !known {
		p.mu.Unlock()
		return
	}
	changed := h.healthy != ok
	h.healthy = ok
	if ok {
		h.failures = 0
		h.next = time.Time{}
	} else {
		h.failures++
		wait := p.interval << min(h.failures-1, 4)
		if wait > p.maxWait {
			wait = p.maxWait
		}
		h.next = time.Now().Add(wait)
	}
	fn := p.onChange
	p.mu.Unlock()
	if changed && fn != nil {
		fn(peer, ok)
	}
}

// MarkUnhealthy records a failed interaction with a peer (typically a
// proxied request that could not reach it); the probe loop takes over
// recovery with backoff.
func (p *Prober) MarkUnhealthy(peer string) { p.record(peer, false) }

// Healthy reports whether the peer is currently believed reachable.
// Unknown peers report false.
func (p *Prober) Healthy(peer string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	h, ok := p.peers[peer]
	return ok && h.healthy
}

// HealthyCount returns how many peers are currently believed healthy.
func (p *Prober) HealthyCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, h := range p.peers {
		if h.healthy {
			n++
		}
	}
	return n
}
