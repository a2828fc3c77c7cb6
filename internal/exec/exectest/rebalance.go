// Package exectest holds test helpers for kernels that fan out under a
// scheduler grant.
package exectest

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"structmine/internal/exec"
)

// RebalancingContext returns a context carrying a grant of an 8-worker
// scheduler whose budget keeps changing for the rest of the test: a
// goroutine loops Acquire, Acquire, Release, Release, so the grant flips
// between its solo (8) and its shared (3–4) allotment — what concurrent
// jobs arriving and finishing do to a long job in the daemon. A kernel
// that sizes per-worker state from one read of the budget and fans out
// on another indexes out of range under it.
func RebalancingContext(t testing.TB) context.Context {
	s := exec.NewScheduler(8)
	g := s.Acquire()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			a, b := s.Acquire(), s.Acquire()
			runtime.Gosched()
			a.Release()
			b.Release()
			runtime.Gosched()
		}
	}()
	t.Cleanup(func() {
		close(done)
		wg.Wait()
		g.Release()
	})
	return exec.WithGrant(context.Background(), g)
}
