// Command structmined is the structure-mining daemon: a long-running
// HTTP/JSON service that holds the datasets registered with it, executes
// mining tasks as asynchronous jobs on a bounded worker pool, and serves
// identical repeated queries from a content-addressed artifact cache.
//
// Usage:
//
//	structmined [flags] [dataset.csv ...]
//
// CSV files given on the command line are pre-registered at startup.
//
// The daemon has no authentication, so it listens on loopback by
// default; pass -addr to expose it deliberately. HTTP clients may only
// register datasets by server-side path ({"path":...}) when -data-dir
// names the directory such paths are confined to — otherwise they must
// upload the CSV body. Retained state is bounded: -max-datasets caps
// the registry, -max-jobs caps retained job records (oldest finished
// jobs are forgotten first), and -cache-entries caps the artifact cache
// (least recently used artifacts are evicted).
//
// Without -persist every dataset is resident: its parsed relation is
// held in memory. Passing -persist DIR makes the daemon durable and
// every dataset paged: it is written as one self-describing columnar
// file under DIR/colstore (the only dataset format) and mined from
// there page-at-a-time ("storage":"paged" in its listing), through the
// same task pipeline and with the same results as a resident one; only
// joins, which takes several files, cannot run as a job. Completed
// artifacts spill to a disk cache, and terminal jobs are journaled under
// DIR. A restarted daemon (even after SIGKILL or a crash) recovers all
// three — datasets are listed again from their files, old job ids still
// answer, and identical queries are cache hits without re-mining.
// Corrupt files found at boot are quarantined under DIR/quarantine,
// never trusted. A DIR/datasets/ or DIR/minestate/ directory left by an
// older build is not read (and not touched). -fsync additionally syncs
// every write for power-loss durability at a latency cost.
// -resident-bytes is accepted for compatibility and ignored.
//
// Endpoints (/v1 is the only surface; any other path is a plain 404):
//
//	POST /v1/datasets            register a dataset (raw CSV body, or JSON {"path":...} / {"name":...,"csv":...})
//	GET  /v1/datasets            list registered datasets
//	GET  /v1/datasets/{id}       one dataset with its resident statistics
//	POST /v1/datasets/{id}/append  append CSV rows (same header); bumps the epoch, re-mines by delta
//	POST /v1/jobs                submit a job: {"dataset":id,"task":name,"params":{...}}
//	GET  /v1/jobs                list jobs
//	GET  /v1/jobs/{id}           poll one job (queued|running|done|failed|canceled)
//	GET  /v1/jobs/{id}/result    fetch a completed job's artifact
//	POST /v1/jobs/{id}/cancel    cancel a queued or running job
//	GET  /v1/jobs/{id}/trace     per-stage wall-clock timings of a finished job
//	GET  /v1/tasks               list runnable tasks
//	GET  /v1/healthz             liveness, drain state, cache and recovery counters
//	GET  /v1/metrics             Prometheus text exposition (engine + server + store metrics)
//
// Errors are uniform JSON envelopes with machine-readable codes:
// {"error":{"code":"dataset_not_found","message":"..."}}. Every 429
// (queue_full, rate_limited, quota_exceeded, dataset_limit) carries a
// Retry-After header.
//
// Passing -peers "http://a:8421,http://b:8421" (with -node naming this
// node's own URL in that list) starts the daemon in cluster mode: each
// dataset has one owning replica chosen by rendezvous hashing of its
// content hash, and every node transparently proxies requests for
// datasets it does not own to the owner — clients may talk to any
// replica. Peer health is probed continuously; requests for a dataset
// whose owner is down answer 503 peer_unavailable until it recovers.
// /v1/healthz and /v1/metrics always describe the node answering, never
// a peer.
//
// Per-tenant admission control reads the X-Tenant request header
// (absent = "default"): -tenant-rate/-tenant-burst bound each tenant's
// job submissions with a token bucket (429 rate_limited), and
// -tenant-max-jobs caps each tenant's queued+running jobs (429
// quota_exceeded). Submissions may carry "priority":"interactive"
// (default) or "batch"; queued interactive jobs always run first.
//
// Passing -pprof additionally mounts net/http/pprof under /debug/pprof/.
// Like the rest of the surface it is unauthenticated — only enable it on
// a loopback or otherwise trusted address.
//
// SIGINT/SIGTERM trigger a graceful shutdown: new work is rejected with
// 503 while accepted jobs drain, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"structmine/internal/cluster"
	"structmine/internal/relation"
	"structmine/internal/server"
	"structmine/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "structmined:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a shutdown signal arrives. It
// prints its progress lines to out. When ready is non-nil, the bound
// address is sent on it once the listener is up and SIGINT/SIGTERM are
// handled (used by tests binding port 0).
func run(args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("structmined", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8421", "listen address (loopback by default; the daemon has no authentication)")
	workers := fs.Int("workers", 2, "job worker-pool size (how many jobs run concurrently)")
	procs := fs.Int("procs", 0, "CPU cores the scheduler divides fairly across running jobs (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue", 64, "maximum number of queued jobs")
	jobTimeout := fs.Duration("job-timeout", 5*time.Minute, "per-job wall-clock budget")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "how long shutdown waits for in-flight jobs")
	maxRows := fs.Int("max-rows", 0, "maximum data rows per registered CSV (0 = unlimited)")
	maxFields := fs.Int("max-fields", 0, "maximum columns per registered CSV (0 = unlimited)")
	maxUpload := fs.Int64("max-upload", 64<<20, "maximum dataset upload size in bytes")
	dataDir := fs.String("data-dir", "", "directory HTTP clients may register datasets from by path (empty = uploads only)")
	maxDatasets := fs.Int("max-datasets", 64, "maximum registered datasets, paged and resident alike")
	fs.Int64("resident-bytes", 0, "ignored: datasets are paged with -persist and resident without it")
	primCacheBytes := fs.Int64("primcache-bytes", 64<<20, "byte budget of the per-dataset primitive cache serving paged jobs (negative = disabled)")
	maxJobs := fs.Int("max-jobs", 1024, "maximum retained job records (oldest finished jobs are forgotten first)")
	cacheEntries := fs.Int("cache-entries", 512, "maximum artifact-cache entries (LRU eviction)")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (unauthenticated; loopback only)")
	persist := fs.String("persist", "", "directory for the durable store (empty = memory only; state survives restarts and crashes)")
	fsyncWrites := fs.Bool("fsync", false, "fsync every durable write (with -persist; survives power loss at a latency cost)")
	peers := fs.String("peers", "", "comma-separated base URLs of every replica, this node included (empty = single node)")
	node := fs.String("node", "", "this node's base URL within -peers (default: http://<addr>)")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "peer health-probe interval in cluster mode")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant sustained job submissions per second (0 = unlimited)")
	tenantBurst := fs.Int("tenant-burst", 0, "per-tenant submission burst size (default ceil of -tenant-rate)")
	tenantMaxJobs := fs.Int("tenant-max-jobs", 0, "per-tenant cap on queued+running jobs (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var router *cluster.Router
	if *peers != "" {
		self := *node
		if self == "" {
			self = "http://" + *addr
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		var err error
		router, err = cluster.New(self, peerList, *probeInterval)
		if err != nil {
			return err
		}
		defer router.Close()
		fmt.Fprintf(out, "cluster mode: node %s in a %d-replica set\n", router.Self().ID, router.Table().Len())
	}

	var st *store.Store
	if *persist != "" {
		var err error
		st, err = store.Open(*persist, store.Options{Fsync: *fsyncWrites})
		if err != nil {
			return fmt.Errorf("opening durable store: %w", err)
		}
		defer st.Close()
	}

	srv := server.New(server.Config{
		Workers:        *workers,
		Procs:          *procs,
		QueueDepth:     *queueDepth,
		JobTimeout:     *jobTimeout,
		Limits:         relation.Limits{MaxRows: *maxRows, MaxFields: *maxFields},
		MaxUploadBytes: *maxUpload,
		DataDir:        *dataDir,
		MaxDatasets:    *maxDatasets,
		PrimCacheBytes: *primCacheBytes,
		MaxJobs:        *maxJobs,
		CacheEntries:   *cacheEntries,
		EnablePprof:    *enablePprof,
		Store:          st,
		Router:         router,
		Tenant: server.TenantLimits{
			Rate:    *tenantRate,
			Burst:   *tenantBurst,
			MaxJobs: *tenantMaxJobs,
		},
	})
	if st != nil {
		t := st.Stats()
		datasets, _ := srv.Registry().Recovered()
		fmt.Fprintf(out, "durable store %s: recovered %d datasets, %d artifacts, %d job records",
			*persist, datasets, t.RecoveredArtifacts, t.RecoveredJobs)
		if t.Quarantined > 0 || t.DroppedJobRecords > 0 {
			fmt.Fprintf(out, " (quarantined %d files, dropped %d torn journal lines)",
				t.Quarantined, t.DroppedJobRecords)
		}
		if err := srv.Registry().RecoverErr(); err != nil {
			fmt.Fprintf(out, " (persisted datasets not adopted: %v)", err)
		}
		fmt.Fprintln(out)
	}
	for _, path := range fs.Args() {
		ds, _, err := srv.Registry().RegisterPath(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "registered %s as %s (%d tuples, %d attributes)\n",
			path, ds.ID, ds.Summary.Tuples, ds.Summary.Attributes)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	// The handler is in place before the daemon says it is listening: a
	// SIGTERM sent as soon as the address is known drains, not kills.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	fmt.Fprintf(out, "structmined listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(out, "received %s, draining jobs\n", sig)
	}

	// Drain the job runner first — new submissions get 503 while the
	// HTTP surface stays up for status polls — then close the listener.
	// The listener gets its own fresh budget: even when the drain eats
	// its whole timeout, in-flight status polls still finish.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelDrain()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "structmined: drain incomplete: %v\n", err)
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "structmined stopped")
	return nil
}
