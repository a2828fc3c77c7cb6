// Package server implements structmined, a long-running structure-mining
// service over the task contract of internal/task, served under /v1 and
// nowhere else. It owns three pieces of state:
//
//   - a dataset registry: CSV instances registered once (by path or
//     upload), parsed under configurable limits and kept — as the parsed
//     relation without a durable store, as its colstore file with one —
//     together with their instance statistics and content hash; a job
//     reaches its dataset through Registry.Pin, lookup and reference in
//     one step;
//   - an async job runner: a bounded worker pool executing mining tasks
//     with per-job timeouts and cancellation, states
//     queued → running → done|failed|canceled;
//   - a content-addressed artifact cache keyed on (dataset hash, epoch,
//     task, normalized parameters) holding each artifact as the JSON
//     bytes its job encoded once, so an identical repeated query is
//     answered without re-running the miner and with the same bytes.
//
// Shutdown is graceful: admission stops (new submissions get 503),
// accepted jobs drain, then the HTTP listener closes.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"structmine/internal/cluster"
	"structmine/internal/exec"
	"structmine/internal/obs"
	"structmine/internal/primcache"
	"structmine/internal/relation"
	"structmine/internal/store"
)

// ErrPathRegistrationDisabled reports that {"path":...} registration
// was attempted on a server started without a data directory.
var ErrPathRegistrationDisabled = errors.New(
	"server: path registration is disabled; start with -data-dir or upload the CSV body")

// Config tunes a Server. Zero values select sensible defaults.
type Config struct {
	// Workers is the job worker-pool size (default 2).
	Workers int
	// Procs is the CPU-core capacity the execution scheduler divides
	// fairly across jobs running concurrently on the pool (default 0 =
	// track GOMAXPROCS). Each running job computes under a worker budget
	// of roughly Procs / running-jobs, so a heavy job cannot monopolize
	// the cores while small jobs wait.
	Procs int
	// QueueDepth bounds how many jobs may wait (default 64); submissions
	// beyond it are rejected with 429.
	QueueDepth int
	// JobTimeout is the per-job wall-clock budget (default 5m, 0 keeps
	// the default; use Server-side cancellation for unlimited jobs).
	JobTimeout time.Duration
	// Limits bounds CSV parsing of registered datasets.
	Limits relation.Limits
	// MaxUploadBytes bounds the request body of dataset uploads
	// (default 64 MiB).
	MaxUploadBytes int64
	// DataDir, when non-empty, is the only directory from which HTTP
	// clients may register datasets by path ({"path":...}); symlinks are
	// resolved before the containment check. When empty (the default),
	// path registration over HTTP is rejected — clients must upload the
	// CSV body. Operator-side registration (command-line arguments) is
	// not affected.
	DataDir string
	// MaxDatasets caps how many datasets are registered, paged and
	// resident alike (default 64); registrations beyond it are rejected.
	MaxDatasets int
	// PrimCacheBytes caps the (hash, epoch, attribute)-keyed primitive
	// cache serving single-attribute partitions and dictionary decodes to
	// paged jobs (default 64 MiB, LRU-evicted; negative disables caching).
	PrimCacheBytes int64
	// MaxJobs caps how many job records are retained (default 1024);
	// beyond it the oldest terminal jobs are forgotten.
	MaxJobs int
	// CacheEntries caps the artifact cache (default 512); beyond it the
	// least recently used artifacts are evicted.
	CacheEntries int
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: the profiling surface is unauthenticated, so it should
	// only be exposed deliberately (the daemon's -pprof flag).
	EnablePprof bool
	// Router, when non-nil, puts the server in cluster (router) mode:
	// dataset-scoped requests whose rendezvous owner is another replica
	// are transparently proxied there, job ids carry the minting node's
	// tag, and a job-id request for a peer's id is proxied to that peer.
	// Node-local surfaces (/v1/healthz, /v1/metrics) are never
	// proxied. The router's lifecycle (Close) belongs to the caller.
	Router *cluster.Router
	// Tenant bounds per-tenant admission (X-Tenant header; zero values
	// keep admission unlimited, exactly as before).
	Tenant TenantLimits
	// Store, when non-nil, makes the server durable: every dataset is its
	// colstore file ("storage":"paged"), written before its registration
	// is acknowledged and served from it page-at-a-time; completed
	// artifacts spill to disk, terminal jobs are journaled, and New
	// replays all three so a restarted server answers for its previous
	// life (the daemon's -persist flag). Nil keeps every piece of state
	// memory-only and every dataset a resident parsed relation.
	Store *store.Store
}

func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.MaxDatasets <= 0 {
		c.MaxDatasets = 64
	}
	if c.PrimCacheBytes == 0 {
		c.PrimCacheBytes = 64 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 512
	}
	return c
}

// Server wires the registry, job runner and artifact cache behind an
// http.Handler.
type Server struct {
	cfg   Config
	reg   *Registry
	cache *Cache
	jobs  *Runner
	mux   *http.ServeMux

	// metrics is this server's own registry (request counters, queue and
	// cache gauges); GET /v1/metrics renders it after the process-wide
	// obs.Default holding the engine metrics. Per-server so tests can
	// assemble many servers in one process without name collisions.
	metrics    *obs.Registry
	reqTotal   *obs.CounterVec
	reqSeconds *obs.HistogramVec
}

// New assembles a server and starts its worker pool. With a durable
// store configured, the store's recovered state is adopted before the
// first request: colstore files become (paged) datasets again, journal
// records become poll-able terminal jobs,
// and disk artifacts answer repeated queries as cache hits.
func New(cfg Config) *Server {
	cfg = cfg.normalized()
	s := &Server{
		cfg:   cfg,
		reg:   NewRegistry(cfg.Limits, cfg.MaxDatasets),
		cache: NewCache(cfg.CacheEntries),
		mux:   http.NewServeMux(),
	}
	s.reg.st = cfg.Store
	s.reg.prim = primcache.New(cfg.PrimCacheBytes)
	s.cache.st = cfg.Store
	s.jobs = NewRunner(s.reg, s.cache, cfg.Store, exec.NewScheduler(cfg.Procs),
		cfg.Tenant, cfg.Workers, cfg.QueueDepth, cfg.JobTimeout, cfg.MaxJobs)
	if cfg.Router != nil {
		// Job sequences are node-local: qualify the ids so a peer that
		// proxies for this node can tell our jobs from its own.
		s.jobs.idPrefix = "job-" + cluster.JobTag(cfg.Router.Self().ID) + "-"
	}
	if cfg.Store != nil {
		// One boot path: append intents are settled first, so the directory
		// sweep only ever sees one side of a torn append.
		s.reg.RecoverAppends()
		s.reg.RecoverColstore()
		s.jobs.Preload(cfg.Store.Jobs())
	}
	s.registerMetrics()
	s.routes()
	return s
}

// registerMetrics wires the server-side metric families. Request
// counters and latency histograms are updated by the route wrapper in
// routes(); everything else is read from live state at scrape time.
func (s *Server) registerMetrics() {
	m := obs.NewRegistry()
	s.metrics = m
	s.reqTotal = m.CounterVec("structmined_http_requests_total",
		"HTTP requests served, by route pattern.", "route")
	s.reqSeconds = m.HistogramVec("structmined_http_request_seconds",
		"HTTP request latency in seconds, by route pattern.", "route", obs.TimeBuckets)
	m.GaugeSamplesFunc("structmined_jobs",
		"Retained job records, by lifecycle state.", "state", func() []obs.Sample {
			counts := s.jobs.StateCounts()
			states := []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}
			out := make([]obs.Sample, len(states))
			for i, st := range states {
				out[i] = obs.Sample{Label: string(st), Value: float64(counts[st])}
			}
			return out
		})
	m.GaugeFunc("structmined_jobs_queue_depth",
		"Accepted jobs waiting for a worker.", func() float64 {
			return float64(s.jobs.QueueDepth())
		})
	m.CounterFunc("structmined_cache_hits_total",
		"Artifact-cache lookups answered without re-running the miner.", func() float64 {
			return float64(s.cache.Stats().Hits)
		})
	m.CounterFunc("structmined_cache_misses_total",
		"Artifact-cache lookups that required a miner run.", func() float64 {
			return float64(s.cache.Stats().Misses)
		})
	m.GaugeFunc("structmined_cache_entries",
		"Artifacts currently resident in the cache.", func() float64 {
			return float64(s.cache.Stats().Entries)
		})
	m.GaugeFunc("structmined_datasets",
		"Datasets registered, paged and resident alike.", func() float64 {
			return float64(s.reg.Len())
		})
	m.GaugeFunc("structmined_dataset_resident_bytes",
		"Total CSV source size of the resident datasets.", func() float64 {
			return float64(s.reg.ResidentBytes())
		})
	if st := s.cfg.Store; st != nil {
		s.registerStoreMetrics(st)
	}
	// Cluster families live in this server's registry too: /v1/metrics
	// always reports node-local state, never a peer's — the node-id
	// guard the cluster tests pin.
	if rt := s.cfg.Router; rt != nil {
		rt.RegisterMetrics(m)
	}
}

// registerStoreMetrics exposes the durable store's counters and gauges,
// read from store.Stats() at scrape time. The structmine_store_ prefix
// groups them apart from the per-server structmined_ families because
// the store can outlive any single server instance.
func (s *Server) registerStoreMetrics(st *store.Store) {
	m := s.metrics
	counters := []struct {
		name, help string
		read       func(store.Stats) float64
	}{
		{"structmine_store_artifact_writes_total",
			"Artifacts spilled to the durable tier.",
			func(t store.Stats) float64 { return float64(t.ArtifactWrites) }},
		{"structmine_store_artifact_write_errors_total",
			"Artifact spills that failed.",
			func(t store.Stats) float64 { return float64(t.ArtifactWriteErr) }},
		{"structmine_store_artifact_evictions_total",
			"Artifacts evicted from disk under the LRU budgets.",
			func(t store.Stats) float64 { return float64(t.ArtifactEvictions) }},
		{"structmine_store_journal_appends_total",
			"Terminal job records appended to the journal.",
			func(t store.Stats) float64 { return float64(t.JournalAppends) }},
		{"structmine_store_journal_append_errors_total",
			"Journal appends that failed.",
			func(t store.Stats) float64 { return float64(t.JournalAppendErr) }},
		{"structmine_store_quarantined_total",
			"Corrupt or foreign files moved to quarantine.",
			func(t store.Stats) float64 { return float64(t.Quarantined) }},
		{"structmine_store_append_record_writes_total",
			"Append intent records written durably.",
			func(t store.Stats) float64 { return float64(t.AppendRecordWrites) }},
	}
	for _, c := range counters {
		read := c.read
		m.CounterFunc(c.name, c.help, func() float64 { return read(st.Stats()) })
	}
	gauges := []struct {
		name, help string
		read       func(store.Stats) float64
	}{
		{"structmine_store_artifact_entries",
			"Artifacts resident on disk.",
			func(t store.Stats) float64 { return float64(t.ArtifactEntries) }},
		{"structmine_store_artifact_bytes",
			"Total bytes of artifacts resident on disk.",
			func(t store.Stats) float64 { return float64(t.ArtifactBytes) }},
		{"structmine_store_journal_records",
			"Job records in the journal (recovered + appended this run).",
			func(t store.Stats) float64 { return float64(t.JournalRecords) }},
		{"structmine_store_recovered_artifacts",
			"Artifacts recovered at the last boot.",
			func(t store.Stats) float64 { return float64(t.RecoveredArtifacts) }},
		{"structmine_store_recovered_jobs",
			"Journal records recovered at the last boot.",
			func(t store.Stats) float64 { return float64(t.RecoveredJobs) }},
		{"structmine_store_dropped_job_records",
			"Journal lines dropped at the last boot (torn or invalid).",
			func(t store.Stats) float64 { return float64(t.DroppedJobRecords) }},
	}
	for _, g := range gauges {
		read := g.read
		m.GaugeFunc(g.name, g.help, func() float64 { return read(st.Stats()) })
	}
	// Dataset recovery is the registry's work, not the store's.
	m.CounterFunc("structmine_store_append_replays_total",
		"Append intents replayed against their dataset files at the last boot.", func() float64 {
			_, replays := s.reg.Recovered()
			return float64(replays)
		})
	m.GaugeFunc("structmine_store_recovered_datasets",
		"Datasets recovered from their colstore files at the last boot.", func() float64 {
			datasets, _ := s.reg.Recovered()
			return float64(datasets)
		})
}

// resolveDataPath validates a client-supplied registration path against
// the configured data directory: relative paths are rooted there, and
// the symlink-resolved target must not escape it.
func (s *Server) resolveDataPath(p string) (string, error) {
	if s.cfg.DataDir == "" {
		return "", ErrPathRegistrationDisabled
	}
	root, err := filepath.Abs(s.cfg.DataDir)
	if err != nil {
		return "", fmt.Errorf("server: resolving data directory: %w", err)
	}
	root, err = filepath.EvalSymlinks(root)
	if err != nil {
		return "", fmt.Errorf("server: resolving data directory: %w", err)
	}
	if !filepath.IsAbs(p) {
		p = filepath.Join(root, p)
	}
	resolved, err := filepath.EvalSymlinks(filepath.Clean(p))
	if err != nil {
		return "", fmt.Errorf("server: resolving dataset path: %w", err)
	}
	rel, err := filepath.Rel(root, resolved)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("server: path %q is outside the data directory", p)
	}
	return resolved, nil
}

// Handler returns the HTTP surface of the service.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the dataset registry (used by cmd/structmined to
// pre-register datasets given on the command line).
func (s *Server) Registry() *Registry { return s.reg }

// CacheStats returns the artifact cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// Shutdown drains the job runner: admission stops, accepted jobs finish
// (or are canceled when ctx expires first). Call before closing the
// HTTP listener so in-flight jobs are not lost.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.jobs.Shutdown(ctx)
}
