package server

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"structmine/internal/task"
)

// TestTenantRateLimit pins the token bucket: with one token of burst
// and a negligible refill rate, a tenant's second submission answers
// 429 rate_limited with a Retry-After header, while another tenant's
// bucket is untouched.
func TestTenantRateLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Tenant: TenantLimits{Rate: 0.001, Burst: 1}})
	var ds Dataset
	if code, body := doJSON(t, "POST", ts.URL+"/v1/datasets?name=toy", []byte(contractCSV), &ds); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	submit := func(tenant string) (int, http.Header, string) {
		return doReq(t, "POST", ts.URL+"/v1/jobs",
			map[string]string{"Content-Type": "application/json", "X-Tenant": tenant},
			[]byte(`{"dataset":"`+ds.ID+`","task":"describe"}`))
	}
	if code, _, body := submit("acme"); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("first submit: %d %s", code, body)
	}
	code, hdr, body := submit("acme")
	if code != http.StatusTooManyRequests || !strings.Contains(body, CodeRateLimited) {
		t.Fatalf("second submit: %d %s, want 429 %s", code, body, CodeRateLimited)
	}
	if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want whole seconds >= 1", hdr.Get("Retry-After"))
	}
	// Tenant isolation: a different key has its own full bucket.
	if code, _, body := submit("globex"); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("other tenant: %d %s, want admission", code, body)
	}
}

// TestTenantQuota pins the concurrent-jobs cap: while a tenant's job
// is queued or running, its next submission answers 429
// quota_exceeded; the slot frees on any terminal state.
func TestTenantQuota(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 16,
		Tenant: TenantLimits{MaxJobs: 1}})
	var ds Dataset
	if code, body := doJSON(t, "POST", ts.URL+"/v1/datasets?name=heavy", heavyCSV(), &ds); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	var job JobView
	code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
		submitRequest{Dataset: ds.ID, Task: "rank-fds"}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", code, body)
	}
	code, hdr, raw := doReq(t, "POST", ts.URL+"/v1/jobs",
		map[string]string{"Content-Type": "application/json"},
		[]byte(`{"dataset":"`+ds.ID+`","task":"describe"}`))
	if code != http.StatusTooManyRequests || !strings.Contains(raw, CodeQuotaExceeded) {
		t.Fatalf("over-quota submit: %d %s, want 429 %s", code, raw, CodeQuotaExceeded)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("quota 429 is missing Retry-After")
	}
	// Another tenant has its own quota and is admitted (queued).
	if code, _, raw := doReq(t, "POST", ts.URL+"/v1/jobs",
		map[string]string{"Content-Type": "application/json", "X-Tenant": "globex"},
		[]byte(`{"dataset":"`+ds.ID+`","task":"describe"}`)); code != http.StatusAccepted {
		t.Fatalf("other tenant: %d %s", code, raw)
	}
	// Canceling the held job frees the slot.
	if code, body := doJSON(t, "POST", ts.URL+"/v1/jobs/"+job.ID+"/cancel", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel: %d %s", code, body)
	}
	waitJob(t, ts, job.ID)
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, _, raw := doReq(t, "POST", ts.URL+"/v1/jobs",
			map[string]string{"Content-Type": "application/json"},
			[]byte(`{"dataset":"`+ds.ID+`","task":"describe"}`))
		if code == http.StatusAccepted || code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after cancel: %d %s", code, raw)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPriorityDequeueOrder pins the queue discipline at the Runner
// level, with no workers racing the assertions: every interactive job
// dequeues before any batch job, FIFO within each class, and a drain
// hands out the backlog before stopping the workers.
func TestPriorityDequeueOrder(t *testing.T) {
	q := &Runner{
		jobs:    map[string]*Job{},
		tenants: newTenants(TenantLimits{}),
		depth:   16,
	}
	q.cond = &sync.Cond{L: &q.mu}
	enqueue := func(id string, p Priority) {
		job := &Job{id: id, priority: p, state: StateQueued}
		if p == PriorityBatch {
			q.low = append(q.low, job)
		} else {
			q.high = append(q.high, job)
		}
	}
	enqueue("b1", PriorityBatch)
	enqueue("i1", PriorityInteractive)
	enqueue("b2", PriorityBatch)
	enqueue("i2", PriorityInteractive)
	q.draining = true // dequeue returns false once both queues empty
	var got []string
	for {
		job, ok := q.dequeue()
		if !ok {
			break
		}
		got = append(got, job.id)
	}
	want := []string{"i1", "i2", "b1", "b2"}
	if len(got) != len(want) {
		t.Fatalf("dequeued %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeued %v, want %v", got, want)
		}
	}
}

// TestPriorityEndToEnd drives the HTTP surface: with a single worker
// pinned by a running job, a batch submission queued first still runs
// after a later interactive one. The schedule is fixed by the jobs'
// sizes, not by timing: the pin and the batch job are mine-mvds over
// heavyCSV (at the default LHS bound ≈ 97 s and at LHS ≤ 1 ≈ 27 s on a
// two-core host; both check for cancellation between candidates), the
// interactive job a describe. The pin is canceled only once both other
// jobs are queued behind it, so the freed worker takes the interactive
// job, which finishes while the batch job has just started.
func TestPriorityEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 16})
	var ds Dataset
	if code, body := doJSON(t, "POST", ts.URL+"/v1/datasets?name=heavy", heavyCSV(), &ds); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	submit := func(priority, taskName string, p task.Params) JobView {
		var v JobView
		code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
			submitRequest{Dataset: ds.ID, Task: taskName, Priority: priority, Params: p}, &v)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s %s: %d %s", priority, taskName, code, body)
		}
		return v
	}
	poll := func(id string) JobView {
		var v JobView
		if code, body := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, nil, &v); code != http.StatusOK {
			t.Fatalf("poll %s: %d %s", id, code, body)
		}
		return v
	}
	awaitState := func(id string, want State) {
		deadline := time.Now().Add(30 * time.Second)
		for v := poll(id); v.State != want; v = poll(id) {
			if v.State.Terminal() || time.Now().After(deadline) {
				t.Fatalf("job %s is %s, want %s", id, v.State, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	cancelJob := func(id string) {
		if code, body := doJSON(t, "POST", ts.URL+"/v1/jobs/"+id+"/cancel", nil, nil); code != http.StatusOK {
			t.Fatalf("cancel %s: %d %s", id, code, body)
		}
		if v := waitJob(t, ts, id); v.State != StateCanceled {
			t.Fatalf("canceled job %s ended %s (%s)", id, v.State, v.Error)
		}
	}

	pin := submit("", "mine-mvds", task.Params{})
	awaitState(pin.ID, StateRunning) // occupies the single worker
	batch := submit("batch", "mine-mvds", task.Params{MaxLHS: 1})
	inter := submit("interactive", "describe", task.Params{})
	if batch.Priority != PriorityBatch || inter.Priority != PriorityInteractive {
		t.Fatalf("echoed priorities: %s / %s", batch.Priority, inter.Priority)
	}
	awaitState(batch.ID, StateQueued)
	awaitState(inter.ID, StateQueued)
	cancelJob(pin.ID)

	// When the interactive job completes, the batch job queued before it
	// must not have finished: the worker took the interactive one first.
	if done := waitJob(t, ts, inter.ID); done.State != StateDone {
		t.Fatalf("interactive job: %s (%s)", done.State, done.Error)
	}
	if b := poll(batch.ID); b.State == StateDone {
		t.Fatal("batch job finished before the interactive job that should preempt it in the queue")
	}
	cancelJob(batch.ID)
}

// TestSubmitRejectsUnknownPriority pins the 400 for a priority outside
// the two classes.
func TestSubmitRejectsUnknownPriority(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var ds Dataset
	if code, body := doJSON(t, "POST", ts.URL+"/v1/datasets?name=toy", []byte(contractCSV), &ds); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	code, body := doJSON(t, "POST", ts.URL+"/v1/jobs",
		submitRequest{Dataset: ds.ID, Task: "describe", Priority: "urgent"}, nil)
	if code != http.StatusBadRequest || !strings.Contains(body, "unknown priority") {
		t.Fatalf("bad priority: %d %s, want 400", code, body)
	}
}
