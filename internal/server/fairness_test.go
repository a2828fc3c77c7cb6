package server

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"structmine/internal/task"
)

// heavyCSV builds a low-cardinality wide instance whose FD lattice is
// deep (13 binary attributes, no FDs hold), so mine-fds runs TANE for
// seconds — long enough for small jobs to arrive, run and finish while
// it occupies one pool worker and a shrinking core budget.
func heavyCSV() []byte {
	const attrs, rows = 13, 6000
	rng := rand.New(rand.NewSource(9))
	var b bytes.Buffer
	for j := 0; j < attrs; j++ {
		if j > 0 {
			b.WriteByte(',')
		}
		b.WriteString("A" + strconv.Itoa(j))
	}
	b.WriteByte('\n')
	for i := 0; i < rows; i++ {
		for j := 0; j < attrs; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(rng.Intn(2)))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// One heavy TANE job must not starve small jobs sharing the pool: with
// two pool workers and a four-core scheduler, the heavy job takes one
// worker and (after rebalance) at most half the core budget, so a
// stream of small jobs drains through the other worker with bounded
// latency instead of queueing behind the big one.
func TestFairnessSmallJobsNotStarved(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, Procs: 4, JobTimeout: 2 * time.Minute})
	heavyDS, _, err := s.reg.RegisterCSV("heavy", "fairness", heavyCSV())
	if err != nil {
		t.Fatal(err)
	}
	smallDS, _, err := s.reg.RegisterCSV("small", "fairness", db2CSV(t))
	if err != nil {
		t.Fatal(err)
	}

	heavy, err := s.jobs.SubmitAs(DefaultTenant, PriorityInteractive, heavyDS.ID, "mine-fds", task.Params{})
	if err != nil {
		t.Fatal(err)
	}

	const smallJobs = 6
	start := time.Now()
	ids := make([]string, smallJobs)
	for i := range ids {
		v, err := s.jobs.SubmitAs(DefaultTenant, PriorityInteractive, smallDS.ID, "describe", task.Params{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
	}
	for _, id := range ids {
		done, ok := s.jobs.Done(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("small job %s starved behind the heavy job", id)
		}
	}
	smallElapsed := time.Since(start)

	if v, ok := s.jobs.Get(heavy.ID); ok && !v.State.Terminal() {
		t.Logf("heavy job still running after smalls finished (%v) — no starvation", smallElapsed)
	}
	hd, ok := s.jobs.Done(heavy.ID)
	if !ok {
		t.Fatal("heavy job vanished")
	}
	select {
	case <-hd:
	case <-time.After(90 * time.Second):
		t.Fatal("heavy job did not finish")
	}
	hv, _ := viewOf(s, heavy.ID)
	if hv.State != StateDone {
		t.Fatalf("heavy job state = %s (%s), want done", hv.State, hv.Error)
	}
	for _, id := range ids {
		if v, _ := viewOf(s, id); v.State != StateDone {
			t.Fatalf("small job %s state = %s (%s), want done", id, v.State, v.Error)
		}
	}
	// The latency bound is the fairness assertion: the smalls must never
	// wait for the heavy job's completion (~seconds of TANE) — only for
	// each other on the second pool worker.
	if smallElapsed > 20*time.Second {
		t.Fatalf("small jobs took %v to drain", smallElapsed)
	}
}
