package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"structmine/internal/exec"
	"structmine/internal/obs"
	"structmine/internal/relation"
	"structmine/internal/store"
	"structmine/internal/task"
)

// State is a job's lifecycle position: queued → running → done|failed,
// with canceled reachable from queued or running.
type State string

// Job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Submission errors the handlers map to HTTP statuses (see errors.go
// for the full catalogue).
var (
	ErrDraining  = errors.New("server: shutting down, not accepting jobs")
	ErrQueueFull = errors.New("server: job queue is full")
)

// Job is one asynchronous task execution. Mutable fields are guarded by
// the Runner's mutex; JobView is their JSON shape, which renderLocked
// encodes for the handlers at every state change.
type Job struct {
	id        string
	datasetID string
	dataset   *Dataset // nil for records recovered from the journal
	task      string
	params    task.Params
	key       string   // artifact-cache key
	tenant    string   // admission key (X-Tenant, DefaultTenant otherwise)
	priority  Priority // queue class: interactive jobs dequeue before batch
	quotaHeld bool     // true while the job holds a tenant concurrent-job slot

	// cols is what the job reads, pinned at Submit so a dataset replaced
	// by an append mid-queue still runs against the state it was admitted
	// under. unpin lets go of it, exactly once, when the job
	// reaches a terminal state.
	cols    relation.Columns
	release func()

	state     State
	errMsg    string
	cacheHit  bool
	recovered bool
	result    json.RawMessage // the artifact's served form (Cache.Put), built once, when the job finishes
	view      []byte          // writeJSON bytes of viewLocked(), rendered at every state change (renderLocked)
	trace     obs.TraceReport // per-stage timings, filled when the job terminates
	submitted time.Time       // when the job entered the queue (queue-wait metric)

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed on any terminal state
}

// unpin releases the pin on the dataset's table and drops the Columns
// value: a retained job record must not keep alive the per-value
// statistics an in-memory adapter derived for the run.
func (j *Job) unpin() {
	j.release()
	j.cols = nil
}

// JobView is the JSON shape of a job served by the jobs endpoints.
type JobView struct {
	ID       string      `json:"id"`
	Dataset  string      `json:"dataset"`
	Task     string      `json:"task"`
	Params   task.Params `json:"params"`
	State    State       `json:"state"`
	Error    string      `json:"error,omitempty"`
	CacheHit bool        `json:"cache_hit"`
	Tenant   string      `json:"tenant"`
	Priority Priority    `json:"priority"`
	// Recovered marks a record replayed from the durable journal after a
	// restart rather than executed by this process.
	Recovered bool `json:"recovered,omitempty"`
}

func (j *Job) viewLocked() JobView {
	return JobView{
		ID: j.id, Dataset: j.datasetID, Task: j.task, Params: j.params,
		State: j.state, Error: j.errMsg, CacheHit: j.cacheHit, Recovered: j.recovered,
		Tenant: j.tenant, Priority: j.priority,
	}
}

// renderLocked encodes the job's view once, into the bytes writeJSON
// writes for it, so the responses that carry the view copy them instead
// of encoding it per request. Call it after every change to a field
// viewLocked reads; the caller holds q.mu. Each render is a new slice,
// so a handler may write the one it was handed after the lock is gone.
func (j *Job) renderLocked() {
	b, _ := json.MarshalIndent(j.viewLocked(), "", indent) // a JobView always encodes: its params were JSON
	j.view = append(b, '\n')
}

// Snapshot is a job as one request saw it: its id and state, which the
// handlers branch on, and its view's bytes (renderLocked).
type Snapshot struct {
	ID    string
	State State
	View  []byte
}

func (j *Job) snapshotLocked() Snapshot {
	return Snapshot{ID: j.id, State: j.state, View: j.view}
}

// jobRecord is the journal line written for every terminal job — enough
// to reconstruct the JobView and re-address the artifact after a
// restart. The shape is persisted state: fields may be added, never
// renamed or repurposed.
type jobRecord struct {
	ID       string      `json:"id"`
	Dataset  string      `json:"dataset"`
	Task     string      `json:"task"`
	Params   task.Params `json:"params"`
	Key      string      `json:"key"`
	State    State       `json:"state"`
	Error    string      `json:"error,omitempty"`
	CacheHit bool        `json:"cache_hit"`
	Tenant   string      `json:"tenant,omitempty"`
	Priority Priority    `json:"priority,omitempty"`
}

// Runner executes jobs on a bounded worker pool and records their
// lifecycle. Artifacts of completed jobs go to the cache; a submission
// whose artifact is already cached completes instantly without touching
// the pool. With a durable store attached, every terminal transition is
// appended to the job journal so a restarted server still answers polls
// for pre-restart job ids.
type Runner struct {
	reg     *Registry
	cache   *Cache
	st      *store.Store    // optional journal (nil = memory only)
	sched   *exec.Scheduler // divides CPU cores fairly across concurrent jobs
	tenants *tenants        // per-tenant rate limits and concurrent-job quotas
	timeout time.Duration
	retain  int // max job records kept; oldest terminal jobs beyond it are dropped
	depth   int // combined queue bound across both priority classes

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond // signals workers when a job is queued or drain starts
	jobs     map[string]*Job
	order    []string
	unsorted bool // q.order may be out of id order (see appendOrderLocked)
	seq      int
	idPrefix string // "job-", or "job-<node tag>-" in router mode
	draining bool
	// Two FIFO queues, one per priority class. Workers always drain
	// high before low; within a class submission order is preserved.
	high, low []*Job

	workers sync.WaitGroup
}

// NewRunner starts a pool of `workers` goroutines consuming a queue of
// depth `depth`. It requires workers ≥ 1, depth ≥ 1 and a non-nil sched
// and applies no defaults of its own: New, its one caller, passes them
// from the normalized Config. Each job gets `timeout` of wall clock (0 =
// unlimited). At most `retain` job records are kept (0 = unlimited): once
// exceeded, the oldest terminal jobs are forgotten — their artifacts stay
// in the cache, but polling the job id yields 404. A non-nil st journals
// every terminal job. sched divides CPU cores fairly across the jobs
// running concurrently on the pool.
func NewRunner(reg *Registry, cache *Cache, st *store.Store, sched *exec.Scheduler, lim TenantLimits, workers, depth int, timeout time.Duration, retain int) *Runner {
	ctx, cancel := context.WithCancel(context.Background())
	q := &Runner{
		reg: reg, cache: cache, st: st, sched: sched,
		tenants: newTenants(lim), timeout: timeout, retain: retain, depth: depth,
		baseCtx: ctx, baseCancel: cancel,
		jobs: map[string]*Job{}, idPrefix: "job-",
	}
	q.cond = sync.NewCond(&q.mu)
	q.workers.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

// recordLocked marshals the job's journal line. The caller holds q.mu;
// the append itself happens outside the lock (file IO, possibly fsync).
func (j *Job) recordLocked() []byte {
	data, err := json.Marshal(jobRecord{
		ID: j.id, Dataset: j.datasetID, Task: j.task, Params: j.params,
		Key: j.key, State: j.state, Error: j.errMsg, CacheHit: j.cacheHit,
		Tenant: j.tenant, Priority: j.priority,
	})
	if err != nil {
		return nil
	}
	return data
}

// journal appends one terminal job record to the durable journal. A
// failed append costs restart visibility of this record, never the
// response; the store counts the error.
func (q *Runner) journal(record []byte) {
	if q.st == nil || record == nil {
		return
	}
	_ = q.st.AppendJob(record)
}

// Preload replays journal records recovered by the store: terminal jobs
// from previous runs become poll-able records again, and the id
// sequence resumes past the highest recovered id — of either shape,
// "job-<seq>" or "job-<node tag>-<seq>" — so new jobs never collide
// with journaled ones. Call before serving requests.
func (q *Runner) Preload(records [][]byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, rec := range records {
		var jr jobRecord
		if json.Unmarshal(rec, &jr) != nil || jr.ID == "" || !jr.State.Terminal() {
			continue
		}
		if _, ok := q.jobs[jr.ID]; ok {
			continue
		}
		done := make(chan struct{})
		close(done)
		tenant, priority := jr.Tenant, jr.Priority
		if tenant == "" {
			tenant = DefaultTenant
		}
		if priority == "" {
			priority = PriorityInteractive
		}
		job := &Job{
			id: jr.ID, datasetID: jr.Dataset, task: jr.Task, params: jr.Params,
			key: jr.Key, state: jr.State, errMsg: jr.Error, cacheHit: jr.CacheHit,
			tenant: tenant, priority: priority,
			recovered: true,
			trace:     obs.TraceReport{Stages: []obs.StageTiming{}},
			cancel:    func() {}, done: done,
		}
		job.renderLocked()
		q.jobs[jr.ID] = job
		q.appendOrderLocked(jr.ID)
		if n, err := strconv.Atoi(jr.ID[strings.LastIndexByte(jr.ID, '-')+1:]); err == nil && n > q.seq {
			q.seq = n
		}
	}
	q.pruneLocked()
}

// SubmitAs validates and enqueues one job on behalf of a tenant. When
// the artifact cache already holds the result of an identical query
// against the same dataset content, the returned job is already done
// with CacheHit set and no worker is consumed. Tenant admission applies
// in order: the token bucket throttles the submission attempt itself,
// then — only for submissions that would occupy a worker — the
// concurrent-jobs quota must have a free slot.
func (q *Runner) SubmitAs(tenant string, priority Priority, datasetID, taskName string, p task.Params) (Snapshot, error) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	if priority == "" {
		priority = PriorityInteractive
	}
	if err := q.tenants.admitRate(tenant); err != nil {
		return Snapshot{}, err
	}
	spec, ok := task.Lookup(taskName)
	if !ok {
		return Snapshot{}, fmt.Errorf("%w %q", ErrUnknownTask, taskName)
	}
	if spec.MultiFile {
		return Snapshot{}, fmt.Errorf("%w: task %q operates on several files", ErrTaskNotRunnable, taskName)
	}
	// Pin what the job will read now, before it queues: the id resolves
	// and the reference is taken in one registry step, so an append cannot
	// retire the dataset's table in between.
	ds, cols, release, err := q.reg.Pin(datasetID)
	if err != nil {
		return Snapshot{}, err
	}
	p = p.Normalize(taskName)
	// The lookup happens before q.mu is taken: on a memory miss it reads
	// and CRC-checks an artifact file from the durable tier, and every
	// poll, list and submit would otherwise queue behind that disk read.
	key := Key(ds.Hash, ds.Epoch, taskName, p)
	cached, hit := q.cache.Get(key)
	if hit { // a cache hit reads no rows: let the table go
		release()
		cols, release = nil, func() {}
	}

	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		release()
		return Snapshot{}, ErrDraining
	}
	q.seq++
	ctx, cancel := context.WithCancel(q.baseCtx)
	job := &Job{
		id: fmt.Sprintf("%s%06d", q.idPrefix, q.seq), datasetID: ds.ID, dataset: ds,
		cols: cols, release: release,
		task: taskName, params: p,
		tenant: tenant, priority: priority,
		key: key, state: StateQueued,
		trace:     obs.TraceReport{Stages: []obs.StageTiming{}},
		submitted: time.Now(),
		ctx:       ctx, cancel: cancel, done: make(chan struct{}),
	}
	if hit {
		job.state = StateDone
		job.cacheHit = true
		job.result = cached
		close(job.done)
		cancel()
		job.renderLocked()
		q.jobs[job.id] = job
		q.appendOrderLocked(job.id)
		q.pruneLocked()
		snap, rec := job.snapshotLocked(), job.recordLocked()
		q.mu.Unlock()
		q.journal(rec)
		return snap, nil
	}
	// A job that runs reads what earlier jobs of its dataset left in the
	// artifact cache, and leaves what it builds there: the FD state the
	// other FD tasks and the next epoch resume.
	job.ctx = task.WithIntermediates(ctx, datasetIntermediates{cache: q.cache, id: ds.ID, epoch: ds.Epoch})
	if len(q.high)+len(q.low) >= q.depth {
		cancel()
		q.mu.Unlock()
		release()
		return Snapshot{}, ErrQueueFull
	}
	// The quota slot is reserved under q.mu (its own lock nests inside),
	// and returned when the job reaches any terminal state.
	if err := q.tenants.admitJob(tenant); err != nil {
		cancel()
		q.mu.Unlock()
		release()
		return Snapshot{}, err
	}
	job.quotaHeld = true
	if priority == PriorityBatch {
		q.low = append(q.low, job)
	} else {
		q.high = append(q.high, job)
	}
	q.cond.Signal()
	job.renderLocked()
	q.jobs[job.id] = job
	q.appendOrderLocked(job.id)
	q.pruneLocked()
	snap := job.snapshotLocked()
	q.mu.Unlock()
	return snap, nil
}

// releaseQuotaLocked returns the job's tenant concurrent-job slot
// exactly once. The caller holds q.mu.
func (q *Runner) releaseQuotaLocked(job *Job) {
	if job.quotaHeld {
		job.quotaHeld = false
		q.tenants.releaseJob(job.tenant)
	}
}

// appendOrderLocked adds id to q.order, noting when it breaks id order.
func (q *Runner) appendOrderLocked(id string) {
	q.unsorted = q.unsorted || len(q.order) > 0 && id < q.order[len(q.order)-1]
	q.order = append(q.order, id)
}

// pruneLocked drops the oldest terminal job records once the retention
// cap is exceeded. Queued and running jobs are never dropped, so the
// record count is bounded by retain + in-flight jobs. While the oldest
// record is terminal it goes by reslicing the head of q.order, so a
// submit pays O(1) amortised; only a queued or running record among the
// oldest makes it walk the rest. The caller holds q.mu.
func (q *Runner) pruneLocked() {
	if q.retain <= 0 {
		return
	}
	for len(q.order) > q.retain && q.jobs[q.order[0]].state.Terminal() {
		delete(q.jobs, q.order[0])
		q.order[0] = "" // the dropped head keeps no id alive until append reallocates
		q.order = q.order[1:]
	}
	if len(q.order) <= q.retain {
		return
	}
	excess := len(q.order) - q.retain
	kept := q.order[:0]
	for _, id := range q.order {
		job := q.jobs[id]
		if excess > 0 && job.state.Terminal() {
			delete(q.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	q.order = kept
}

func (q *Runner) worker() {
	defer q.workers.Done()
	for {
		job, ok := q.dequeue()
		if !ok {
			return
		}
		q.run(job)
	}
}

// dequeue blocks until a job is available or the drain leaves both
// queues empty. Interactive jobs always dequeue before batch jobs;
// within a class the order is FIFO. Draining still hands out queued
// jobs — accepted work finishes, only admission has stopped.
func (q *Runner) dequeue() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.high) > 0 {
			job := q.high[0]
			q.high[0] = nil
			q.high = q.high[1:]
			return job, true
		}
		if len(q.low) > 0 {
			job := q.low[0]
			q.low[0] = nil
			q.low = q.low[1:]
			return job, true
		}
		if q.draining {
			return nil, false
		}
		q.cond.Wait()
	}
}

// datasetIntermediates keeps what the jobs of one dataset leave behind —
// the FD state — in the artifact cache: memory tier and, under -persist,
// the disk tier. It is one slot per dataset, keyed by the dataset's
// stable id, so the next epoch finds it after an append. The key holds
// no '@', so it can never be an artifact's Key and no submission can
// name it, and Peek keeps these lookups out of the hit/miss counters,
// which count questions answered. The entry is JSON, as every artifact
// is on both tiers — the state's own JSON, stamped with the epoch it was
// computed at. A load never hands a job a state from a NEWER epoch than
// its pin — an append that lands while the job waits in the queue must
// not feed it state computed over rows it is not mining — and hands it
// an older one, which the miner either resumes (the delta case) or
// refuses.
type datasetIntermediates struct {
	cache *Cache
	id    string
	epoch int
}

type fdStateEntry struct {
	Epoch int             `json:"epoch"`
	State json.RawMessage `json:"state"`
}

func (d datasetIntermediates) key() string { return d.id + "|fd-state" }

func (d datasetIntermediates) LoadFDState() ([]byte, bool) {
	raw, ok := d.cache.Peek(d.key())
	var e fdStateEntry
	if !ok || json.Unmarshal(raw, &e) != nil || e.Epoch > d.epoch {
		return nil, false
	}
	return e.State, true
}

// SaveFDState keeps data, fd.EncodeState JSON; bytes that are not JSON
// cannot be embedded in the entry and are not kept.
func (d datasetIntermediates) SaveFDState(data []byte) {
	if raw, err := json.Marshal(fdStateEntry{Epoch: d.epoch, State: data}); err == nil {
		d.cache.Put(d.key(), raw)
	}
}

func (q *Runner) run(job *Job) {
	q.mu.Lock()
	if job.state != StateQueued { // canceled while waiting in the queue
		q.mu.Unlock()
		return
	}
	job.state = StateRunning
	job.renderLocked()
	q.mu.Unlock()

	ctx := job.ctx
	if q.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, q.timeout)
		defer cancel()
	}
	// The job computes under a scheduler grant: its kernels see a worker
	// budget that shrinks as more jobs run concurrently and recovers as
	// they finish, so one heavy job cannot monopolize the cores. The
	// grant also lends the job pooled scratch arenas; releasing it after
	// the task returns them — safe because task results are freshly
	// allocated copies, never views into arena or mapped-file memory.
	exec.ObserveQueueWait(time.Since(job.submitted))
	g := q.sched.Acquire()
	ctx = exec.WithGrant(ctx, g)
	// Each job gets its own trace buffer; the pipeline stages inside
	// task.RunColumns record themselves on it through the context.
	tr := obs.NewTrace()
	res, err := task.RunColumns(obs.WithTrace(ctx, tr), job.cols, job.task, job.params)
	tr.Finish()
	g.Release()
	job.unpin()
	// The result is encoded once, here: the disk tier stores these
	// compact bytes, and the memory tier their served form, which every
	// /result response copies. A result JSON cannot express (a NaN
	// statistic) fails the job instead of being cached half-written.
	var artifact json.RawMessage
	if err == nil {
		if artifact, err = json.Marshal(res); err != nil {
			err = fmt.Errorf("%w: %v", ErrResultEncoding, err)
		} else {
			artifact = q.cache.Put(job.key, artifact)
		}
	}

	q.mu.Lock()
	job.trace = tr.Report()
	switch {
	case err == nil:
		job.state = StateDone
		job.result = artifact
	case errors.Is(err, context.Canceled):
		job.state = StateCanceled
		job.errMsg = err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		job.state = StateFailed
		job.errMsg = fmt.Sprintf("job exceeded its %s timeout", q.timeout)
	default:
		job.state = StateFailed
		job.errMsg = err.Error()
	}
	job.renderLocked()
	close(job.done)
	q.releaseQuotaLocked(job)
	q.pruneLocked()
	rec := job.recordLocked()
	q.mu.Unlock()
	q.journal(rec)
	job.cancel()
}

// Get returns a snapshot of the job with the given id.
func (q *Runner) Get(id string) (Snapshot, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	job, ok := q.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return job.snapshotLocked(), true
}

// Trace returns the job's per-stage timing report; it is meaningful
// only once the job is terminal (the handler enforces that).
func (q *Runner) Trace(id string) (obs.TraceReport, JobView, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	job, ok := q.jobs[id]
	if !ok {
		return obs.TraceReport{}, JobView{}, false
	}
	return job.trace, job.viewLocked(), true
}

// QueueDepth returns how many accepted jobs are waiting for a worker,
// across both priority classes.
func (q *Runner) QueueDepth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.high) + len(q.low)
}

// StateCounts returns how many retained job records sit in each state.
func (q *Runner) StateCounts() map[State]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[State]int, 5)
	for _, job := range q.jobs {
		out[job.state]++
	}
	return out
}

// Result returns the job's artifact, in its served form, once it is
// done. A done job recovered from the journal carries no in-memory
// result; its artifact is re-read from the cache (memory or durable
// tier) by key.
func (q *Runner) Result(id string) (json.RawMessage, Snapshot, bool) {
	q.mu.Lock()
	job, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return nil, Snapshot{}, false
	}
	res := job.result
	snap := job.snapshotLocked()
	key := job.key
	q.mu.Unlock()
	if res == nil && snap.State == StateDone {
		res, _ = q.cache.Peek(key)
	}
	return res, snap, true
}

// Page returns the view bytes of one cursor page of jobs in id order:
// the first `limit` jobs whose id sorts strictly after `cursor` (empty
// cursor = from the start), the cursor addressing the next page ("" on
// the last page), and the retained total. Ids are zero-padded sequence
// numbers behind one per-node prefix, so lexicographic order is usually
// submission order and the page is cut from q.order in place; only while
// it is not (recovered ids behind another prefix, a sequence past six
// digits) are the ids copied and sorted. Either way a cursor stays
// stable while jobs are submitted or pruned around it.
func (q *Runner) Page(cursor string, limit int) (views [][]byte, next string, total int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	ids := q.order
	if q.unsorted = q.unsorted && !slices.IsSorted(ids); q.unsorted {
		ids = slices.Clone(ids)
		slices.Sort(ids)
	}
	page, next := cursorPage(ids, cursor, limit)
	views = make([][]byte, 0, len(page))
	for _, id := range page {
		views = append(views, q.jobs[id].view)
	}
	return views, next, len(q.order)
}

// Len returns how many job records are retained.
func (q *Runner) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.order)
}

// Cancel aborts a job and returns its view bytes: a queued job
// terminates immediately; a running one stops at its next
// pipeline-stage boundary, and its view still reads running.
func (q *Runner) Cancel(id string) ([]byte, bool) {
	q.mu.Lock()
	job, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return nil, false
	}
	var rec []byte
	release := func() {}
	if job.state == StateQueued {
		job.state = StateCanceled
		job.errMsg = "canceled before execution"
		close(job.done)
		q.releaseQuotaLocked(job)
		job.renderLocked()
		rec = job.recordLocked()
		release = job.unpin // run will never see this job
	}
	view := job.view
	q.mu.Unlock()
	release()
	q.journal(rec)
	job.cancel()
	return view, true
}

// Done exposes the job's completion channel (closed on any terminal
// state); it reports false for unknown ids.
func (q *Runner) Done(id string) (<-chan struct{}, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	job, ok := q.jobs[id]
	if !ok {
		return nil, false
	}
	return job.done, true
}

// Draining reports whether the runner has stopped admitting jobs.
func (q *Runner) Draining() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.draining
}

// StartDrain stops admission; already-accepted jobs keep running.
func (q *Runner) StartDrain() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.draining {
		q.draining = true
		q.cond.Broadcast()
	}
}

// Shutdown drains the pool: admission stops, queued and running jobs
// finish, workers exit. If ctx expires first, in-flight jobs are
// canceled (they abort at their next stage boundary) and Shutdown waits
// for the workers before returning the context's error.
func (q *Runner) Shutdown(ctx context.Context) error {
	q.StartDrain()
	done := make(chan struct{})
	go func() {
		q.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		q.baseCancel()
		<-done
		return ctx.Err()
	}
}
