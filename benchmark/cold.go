package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"time"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed      int64
	seconds   float64 // run length the session counts are derived from
	smoke     bool    // 3 sessions (1000 serve_hot ops) regardless of seconds
	trace     bool    // per-layer run: one set-up, counters, recovery, in-process spans
	daemonBin string
	outDir    string // benchmark/out: traces and the run's temp dirs
	corrupt   bool   // flip one artifact byte before checking (self-test of the checker)
}

// setupRepeats is how many times an end-to-end run sets the workload up;
// setup_s is the median. The last set-up is the one measured against.
const setupRepeats = 3

// coldRun is everything one end-to-end run of a cold workload observed.
type coldRun struct {
	w  *coldWorkload
	in *coldInput

	setupS   []float64
	sessions []sessionResult // the measured phase, in order
	wallS    float64         // wall time of the measured phase
	cpuS     float64         // daemon CPU over the measured phase
	rssMB    float64         // daemon VmHWM at its end
	clientS  float64         // the harness's own CPU over it
	prom     promDelta       // /v1/metrics before and after it
	statuses statusCounts

	uploadedBytes int64 // CSV bytes sent to the daemon since it started
	colFileBytes  int64 // bytes of .col files on disk at the end
	diskBytes     int64 // bytes under the -persist dir at the end
	recoverS      float64

	wrong []wrongArtifact
}

// wrongArtifact is one artifact that failed the output check.
type wrongArtifact struct {
	session int
	msg     string
}

func (w *coldWorkload) sessionCount(cfg runConfig) int {
	if cfg.smoke {
		return 3
	}
	return max(3, int(math.Round(w.sessionsPerSecond*cfg.seconds)))
}

func (w *coldWorkload) warmupCount(cfg runConfig) int {
	if cfg.smoke {
		return 1
	}
	return w.warmup
}

func (w *coldWorkload) sizes(cfg runConfig) (rows, appendRows int) {
	if cfg.smoke {
		// Small enough for a 30 s suite, large enough to stay on the same
		// code paths: above FDEP's 1000-tuple switch, and paged.
		rows = min(w.rows, 2000)
		if w.storage == "paged" {
			rows = 25000
		}
		return rows, w.appendRows * rows / w.rows
	}
	return w.rows, w.appendRows
}

// coldNode is the daemon of a cold workload with its -persist directory
// ("" on a memory-only workload).
type coldNode struct {
	d   *daemon
	dir string
}

// boot starts the workload's daemon on the node's directory.
func (n *coldNode) boot(cfg runConfig, w *coldWorkload) (err error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, w.daemonArgs...)
	if n.dir != "" {
		args = append(args, "-persist", n.dir)
	}
	n.d, err = startDaemon(cfg.daemonBin, args...)
	return err
}

// close stops the daemon and removes its directory.
func (n *coldNode) close() {
	if n.d != nil {
		n.d.stop()
	}
	if n.dir != "" {
		os.RemoveAll(n.dir)
	}
}

// coldSetup brings one daemon to the point where the first timed
// session can start: spawn, health wait, input generation, warm-up
// sessions. It returns the time that took.
func coldSetup(cfg runConfig, w *coldWorkload, c *http.Client, sc *statusCounts) (n *coldNode, in *coldInput, secs float64, err error) {
	start := time.Now()
	n = &coldNode{}
	fail := func(err error) (*coldNode, *coldInput, float64, error) {
		n.close()
		return nil, nil, 0, err
	}
	if w.persist {
		if n.dir, err = os.MkdirTemp(cfg.outDir, "persist-"); err != nil {
			return fail(err)
		}
	}
	if err := n.boot(cfg, w); err != nil {
		return fail(err)
	}
	if err := waitHealthy(c, n.d.url(""), 0, 30*time.Second); err != nil {
		return fail(err)
	}
	rows, appendRows := w.sizes(cfg)
	in, err = newColdInput(w, cfg.seed, rows, appendRows)
	if err != nil {
		return fail(err)
	}
	for i := 0; i < w.warmupCount(cfg); i++ {
		if res := coldSession(c, n.d.url(""), w, in, i, sc); res.err != nil {
			return fail(fmt.Errorf("warm-up session %d: %w", i, res.err))
		}
	}
	return n, in, secondsSince(start), nil
}

// runCold performs one end-to-end run of a cold workload: set-up
// (repeated, the last one kept), the measured closed loop of one caller,
// and the output check. With cfg.trace it also measures recovery. The
// daemon is stopped and its directory removed before it returns.
func runCold(cfg runConfig, w *coldWorkload) (*coldRun, error) {
	run := &coldRun{w: w}
	c := newClient(1)
	defer c.CloseIdleConnections()

	repeats := setupRepeats
	if cfg.trace || cfg.smoke {
		repeats = 1
	}
	var node *coldNode
	for i := 0; i < repeats; i++ {
		if node != nil {
			node.close()
		}
		var secs float64
		var err error
		node, run.in, secs, err = coldSetup(cfg, w, c, &run.statuses)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		run.setupS = append(run.setupS, secs)
	}
	defer node.close()
	base := node.d.url("")

	n, warm := w.sessionCount(cfg), w.warmupCount(cfg)
	if warm+n > maxColdSessions {
		return nil, fmt.Errorf("%s: %d sessions exceed the %d the header rename can address", w.name, warm+n, maxColdSessions)
	}
	before, err := scrape(c, base)
	if err != nil {
		return nil, err
	}
	cpu0, err := node.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	start := time.Now()
	// A slow host must not run into the driver's per-run limit: past
	// three times the intended length the loop stops early and the run
	// reports the sessions it completed.
	limit := time.Duration(3 * cfg.seconds * float64(time.Second))
	for i := 0; i < n; i++ {
		if !cfg.smoke && i >= 3 && time.Since(start) > limit {
			break
		}
		run.sessions = append(run.sessions, coldSession(c, base, w, run.in, warm+i, &run.statuses))
	}
	run.wallS = secondsSince(start)
	run.clientS = selfCPUSeconds() - self0
	cpu1, err := node.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	run.cpuS = cpu1 - cpu0
	if run.rssMB, err = node.d.peakRSSMB(); err != nil {
		return nil, err
	}
	after, err := scrape(c, base)
	if err != nil {
		return nil, err
	}
	run.prom = promDelta{before, after}

	run.uploadedBytes = int64(warm+len(run.sessions)) * int64(len(run.in.base)+len(run.in.app))
	if node.dir != "" {
		if run.diskBytes, err = dirBytes(node.dir, ""); err != nil {
			return nil, err
		}
		if run.colFileBytes, err = dirBytes(node.dir, ".col"); err != nil {
			return nil, err
		}
	}

	if cfg.corrupt {
		corruptOneArtifact(run.sessions)
	}
	run.wrong, err = checkCold(run)
	if err != nil {
		return nil, fmt.Errorf("%s: output check: %w", w.name, err)
	}

	if cfg.trace && w.persist {
		if run.recoverS, err = measureRecovery(cfg, run, node, c); err != nil {
			return nil, fmt.Errorf("%s: recovery: %w", w.name, err)
		}
	}
	return run, nil
}

// failed counts the sessions that errored or returned a wrong artifact.
func (r *coldRun) failed() int {
	bad := map[int]bool{}
	for _, s := range r.sessions {
		if s.err != nil {
			bad[s.index] = true
		}
	}
	for _, w := range r.wrong {
		bad[w.session] = true
	}
	return len(bad)
}

// okSessions returns the sessions that completed without a transport or
// protocol error (their artifacts may still have failed the check).
func (r *coldRun) okSessions() []sessionResult {
	var ok []sessionResult
	for _, s := range r.sessions {
		if s.err == nil {
			ok = append(ok, s)
		}
	}
	return ok
}

// corruptOneArtifact flips one digit inside the result member of the
// last completed session's first artifact.
func corruptOneArtifact(sessions []sessionResult) {
	for i := len(sessions) - 1; i >= 0; i-- {
		s := sessions[i]
		if s.err != nil || len(s.answers) == 0 {
			continue
		}
		if flipDigit(resultTail(s.answers[0].envelope)) {
			return
		}
	}
}

// flipDigit increments the first digit 1–8 of b in place.
func flipDigit(b []byte) bool {
	for j, c := range b {
		if c >= '1' && c <= '8' {
			b[j]++
			return true
		}
	}
	return false
}

// measureRecovery crashes the daemon with SIGKILL, restarts it on the
// same directory and times the restart to a healthy /v1/healthz. Every
// dataset must be listed again, and resubmitting each session's last
// question must be a cache hit with a byte-identical result member.
func measureRecovery(cfg runConfig, run *coldRun, node *coldNode, c *http.Client) (float64, error) {
	var listed struct {
		Total int `json:"total"`
	}
	if err := getJSON(c, node.d.url("/v1/datasets?limit=1"), &listed); err != nil {
		return 0, err
	}
	wantDatasets := listed.Total
	node.d.kill()
	c.CloseIdleConnections()

	start := time.Now()
	if err := node.boot(cfg, run.w); err != nil {
		return 0, err
	}
	base := node.d.url("")
	if err := waitHealthy(c, base, 0, 60*time.Second); err != nil {
		return 0, err
	}
	secs := secondsSince(start)

	if err := getJSON(c, base+"/v1/datasets?limit=1", &listed); err != nil {
		return 0, err
	}
	if listed.Total != wantDatasets {
		return 0, fmt.Errorf("restart re-adopted %d of %d datasets", listed.Total, wantDatasets)
	}
	var sc statusCounts
	for _, s := range run.okSessions() {
		last := s.answers[len(s.answers)-1]
		id, err := datasetOf(last.envelope)
		if err != nil {
			return 0, err
		}
		again, err := ask(c, base, id, last.q, true, &sc)
		if err != nil {
			return 0, fmt.Errorf("session %d after restart: %w", s.index, err)
		}
		if !bytes.Equal(resultTail(last.envelope), resultTail(again.envelope)) {
			return 0, fmt.Errorf("session %d: %s differs after restart", s.index, last.q)
		}
	}
	return secs, nil
}
