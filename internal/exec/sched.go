package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Scheduler divides a fixed worker capacity fairly among the jobs that
// are currently running. Each running job holds one Grant; the grant's
// worker allotment is capacity/K (K = live grants) with the remainder
// going to the earliest acquirers, and never below one. Every Acquire
// and Release rebalances all live grants, so a heavy job's next fan-out
// shrinks as soon as smaller jobs arrive — fan-outs re-read the budget
// at each parallel loop, not once per job.
type Scheduler struct {
	procs int // 0 means "read GOMAXPROCS at rebalance time"

	mu     sync.Mutex
	seq    uint64
	grants []*Grant // live grants in acquisition order
}

// Default is the process-wide scheduler used when no explicit one is
// wired (standalone library callers, the CLI).
var Default = NewScheduler(0)

// NewScheduler returns a scheduler with the given worker capacity;
// procs ≤ 0 tracks GOMAXPROCS.
func NewScheduler(procs int) *Scheduler {
	if procs < 0 {
		procs = 0
	}
	return &Scheduler{procs: procs}
}

func (s *Scheduler) capacity() int {
	if s.procs > 0 {
		return s.procs
	}
	return runtime.GOMAXPROCS(0)
}

// Acquire registers a new job and returns its grant. The caller must
// Release it when the job finishes, or the workers stay reserved.
func (s *Scheduler) Acquire() *Grant {
	g := &Grant{s: s}
	s.mu.Lock()
	s.seq++
	g.seq = s.seq
	s.grants = append(s.grants, g)
	s.rebalanceLocked()
	live := len(s.grants)
	s.mu.Unlock()

	execGrantsTotal.Inc()
	execActiveGrants.Set(int64(live))
	return g
}

// rebalanceLocked recomputes every live grant's allotment: an equal
// share of the capacity, remainder to the earliest acquirers, floor one
// (oversubscription beyond capacity degrades gracefully rather than
// deadlocking admission — admission control is the server's job pool).
func (s *Scheduler) rebalanceLocked() {
	k := len(s.grants)
	if k == 0 {
		execGrantedWorkers.Set(0)
		return
	}
	p := s.capacity()
	share, rem := p/k, p%k
	if share < 1 {
		share, rem = 1, 0
	}
	total := 0
	for i, g := range s.grants {
		w := share
		if i < rem {
			w++
		}
		g.workers.Store(int32(w))
		total += w
	}
	execGrantedWorkers.Set(int64(total))
}

// Grant is one job's admission into the scheduler: a live worker budget
// plus the pooled arenas the job has checked out. Workers may be read
// from any goroutine; Checkout and Release must be called from the
// job's own goroutine (the kernels check scratch out before fanning
// out).
type Grant struct {
	s       *Scheduler
	seq     uint64
	workers atomic.Int32

	mu       sync.Mutex
	arenas   []*Arena
	released bool
}

// Workers returns the grant's current allotment. It is re-read by every
// parallel loop, so a long job tracks rebalances mid-flight.
func (g *Grant) Workers() int {
	if w := g.workers.Load(); w > 0 {
		return int(w)
	}
	return 1
}

// Checkout takes an arena from the process pool and ties its lifetime
// to the grant: Release returns it. Safe for concurrent use (per-worker
// scratch is checked out up front, but defensively locked anyway).
func (g *Grant) Checkout() *Arena {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released {
		// Late checkout after release: nothing would return a pooled
		// arena (or its slabs) to the pool, so hand out a heap one.
		return NewArena()
	}
	a := getArena()
	g.arenas = append(g.arenas, a)
	return a
}

// Release returns the grant's workers to the scheduler and its arenas
// to the pool. Idempotent. After Release the job must not touch any
// memory carved from the checked-out arenas.
func (g *Grant) Release() {
	g.mu.Lock()
	if g.released {
		g.mu.Unlock()
		return
	}
	g.released = true
	arenas := g.arenas
	g.arenas = nil
	g.mu.Unlock()

	putArenas(arenas)

	s := g.s
	s.mu.Lock()
	for i, other := range s.grants {
		if other == g {
			s.grants = append(s.grants[:i], s.grants[i+1:]...)
			break
		}
	}
	s.rebalanceLocked()
	live := len(s.grants)
	s.mu.Unlock()
	execActiveGrants.Set(int64(live))
}
