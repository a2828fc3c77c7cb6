package server

import (
	"fmt"
	"sync"
	"time"
)

// DefaultTenant is the admission key of requests carrying no X-Tenant
// header. Limits apply to it like any other tenant.
const DefaultTenant = "default"

// Priority orders jobs of the same node: every queued interactive job
// runs before any queued batch job; within a class the queue stays
// FIFO. Once running, the exec scheduler's fair-share applies per job
// regardless of class.
type Priority string

// The two job priorities.
const (
	// PriorityInteractive is the default: latency-sensitive submissions.
	PriorityInteractive Priority = "interactive"
	// PriorityBatch marks bulk work that yields the queue head to
	// interactive jobs.
	PriorityBatch Priority = "batch"
)

// ParsePriority validates a submission's priority field ("" selects
// interactive).
func ParsePriority(s string) (Priority, error) {
	switch Priority(s) {
	case "", PriorityInteractive:
		return PriorityInteractive, nil
	case PriorityBatch:
		return PriorityBatch, nil
	default:
		return "", fmt.Errorf("unknown priority %q (want %q or %q)", s, PriorityInteractive, PriorityBatch)
	}
}

// TenantLimits configures per-tenant admission. Zero values disable the
// corresponding limit, so an unconfigured server admits exactly as
// before.
type TenantLimits struct {
	// Rate is the sustained job-submission rate each tenant may offer,
	// in requests per second (0 = unlimited). Enforced by a per-tenant
	// token bucket.
	Rate float64
	// Burst is the token-bucket depth: how many submissions a tenant may
	// make instantaneously before the rate applies (default max(1,
	// ceil(Rate))).
	Burst int
	// MaxJobs caps how many of a tenant's jobs may be queued or running
	// at once (0 = unlimited). Cache-hit submissions complete without a
	// worker and are exempt.
	MaxJobs int
}

func (l TenantLimits) normalized() TenantLimits {
	if l.Rate > 0 && l.Burst <= 0 {
		l.Burst = int(l.Rate + 0.999)
		if l.Burst < 1 {
			l.Burst = 1
		}
	}
	return l
}

// tenantState is one tenant's live admission record.
type tenantState struct {
	tokens float64   // token bucket fill, ≤ Burst
	last   time.Time // last refill instant
	active int       // queued + running jobs
}

// tenants applies TenantLimits per X-Tenant key. All methods are called
// under the Runner's mutex via explicit locking here (its own mutex, so
// the runner's lock ordering stays trivial).
type tenants struct {
	lim TenantLimits
	mu  sync.Mutex
	m   map[string]*tenantState
	now func() time.Time // injectable clock for tests
}

func newTenants(lim TenantLimits) *tenants {
	return &tenants{lim: lim.normalized(), m: map[string]*tenantState{}, now: time.Now}
}

func (t *tenants) state(key string) *tenantState {
	s, ok := t.m[key]
	if !ok {
		s = &tenantState{tokens: float64(t.lim.Burst), last: t.now()}
		t.m[key] = s
	}
	return s
}

// admitRate consumes one token from the tenant's bucket, or reports how
// long until the next token accrues.
func (t *tenants) admitRate(key string) error {
	if t.lim.Rate <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.state(key)
	now := t.now()
	s.tokens += now.Sub(s.last).Seconds() * t.lim.Rate
	s.last = now
	if s.tokens > float64(t.lim.Burst) {
		s.tokens = float64(t.lim.Burst)
	}
	if s.tokens < 1 {
		wait := time.Duration((1 - s.tokens) / t.lim.Rate * float64(time.Second))
		return retryAfterError{
			err:   fmt.Errorf("%w: tenant %q over %g req/s", ErrRateLimited, key, t.lim.Rate),
			after: wait,
		}
	}
	s.tokens--
	return nil
}

// admitJob reserves a concurrent-job slot for the tenant; release it
// with releaseJob when the job terminates.
func (t *tenants) admitJob(key string) error {
	if t.lim.MaxJobs <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.state(key)
	if s.active >= t.lim.MaxJobs {
		return retryAfterError{
			err:   fmt.Errorf("%w: tenant %q has %d jobs in flight (max %d)", ErrQuotaExceeded, key, s.active, t.lim.MaxJobs),
			after: time.Second,
		}
	}
	s.active++
	return nil
}

// releaseJob returns a tenant's concurrent-job slot.
func (t *tenants) releaseJob(key string) {
	if t.lim.MaxJobs <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.m[key]; ok && s.active > 0 {
		s.active--
	}
}
