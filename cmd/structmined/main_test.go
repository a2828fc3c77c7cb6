package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"structmine/internal/datagen"
)

// daemonOutput collects what a daemon under test prints, so that a wait
// that runs out can say what the daemon said last.
type daemonOutput struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *daemonOutput) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(p)
}

func (o *daemonOutput) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// TestDaemonLifecycle boots the daemon on a random port with a
// pre-registered dataset, runs a job over HTTP, checks the repeat is a
// cache hit, then sends SIGTERM and waits for a clean exit. The daemon
// has no store, so -resident-bytes (accepted, ignored) leaves the
// dataset resident.
func TestDaemonLifecycle(t *testing.T) {
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db2.csv")
	if err := db.Joined.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}

	ready := make(chan string, 1)
	errc := make(chan error, 1)
	out := &daemonOutput{}
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-resident-bytes", "1024", path}, out, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr + "/v1"
	case err := <-errc:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not become ready within 30s; its output:\n%s", out)
	}

	// The command-line dataset is pre-registered.
	resp, err := http.Get(base + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var dsPage struct {
		Items []struct {
			ID      string `json:"id"`
			Storage string `json:"storage"`
		} `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dsPage); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	datasets := dsPage.Items
	if len(datasets) != 1 || datasets[0].Storage != "resident" {
		t.Fatalf("datasets = %+v, want the pre-registered one, resident", datasets)
	}

	submit := func() (id, state string, cacheHit bool) {
		body, _ := json.Marshal(map[string]any{"dataset": datasets[0].ID, "task": "mine-fds"})
		resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v struct {
			ID       string `json:"id"`
			State    string `json:"state"`
			CacheHit bool   `json:"cache_hit"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v.ID, v.State, v.CacheHit
	}

	id, state, hit := submit()
	if hit {
		t.Fatal("first submission must not be a cache hit")
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		state = v.State
		if state == "done" {
			break
		}
		if state == "failed" || state == "canceled" {
			t.Fatalf("job %s: %s (%s)", id, state, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 60s; daemon output:\n%s", id, state, out)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, state, hit := submit(); !hit || state != "done" {
		t.Fatalf("repeat submission: state=%s hit=%t, want instant cache hit", state, hit)
	}

	// SIGTERM drains and exits cleanly.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil && !strings.Contains(err.Error(), "Server closed") {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon did not stop within 60s of SIGTERM (job %s last seen %s); its output:\n%s", id, state, out)
	}
}

// TestDaemonPersistRestart boots a persistent daemon, runs a job,
// stops the daemon, and boots a second one over the same store
// directory: the dataset, the old job record, and the artifact must all
// survive, and the identical resubmission must be a cache hit. The
// dataset is paged in both lives, whether or not -resident-bytes is
// passed (it is accepted and ignored).
func TestDaemonPersistRestart(t *testing.T) {
	db, err := datagen.NewDB2Sample()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	path := filepath.Join(tmp, "db2.csv")
	if err := db.Joined.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(tmp, "state")

	// out is the running daemon's output and jobState the last state the
	// test saw of its job: what a wait that runs out reports.
	var out *daemonOutput
	var jobID, jobState string
	boot := func(args ...string) (string, chan error) {
		ready := make(chan string, 1)
		errc := make(chan error, 1)
		out = &daemonOutput{}
		go func() { errc <- run(args, out, ready) }()
		select {
		case addr := <-ready:
			return "http://" + addr, errc
		case err := <-errc:
			t.Fatalf("daemon exited early: %v", err)
		case <-time.After(30 * time.Second):
			t.Fatalf("daemon did not become ready within 30s (job %q last seen %q); its output:\n%s", jobID, jobState, out)
		}
		return "", nil
	}
	stop := func(errc chan error) {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errc:
			if err != nil && !strings.Contains(err.Error(), "Server closed") {
				t.Fatalf("daemon exit: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("daemon did not stop within 60s of SIGTERM (job %q last seen %q); its output:\n%s", jobID, jobState, out)
		}
	}
	getJSON := func(base, path string, out any) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	// First life: register via CLI, run one job to completion.
	base, errc := boot("-addr", "127.0.0.1:0", "-workers", "1", "-resident-bytes", "1024", "-persist", storeDir, path)
	var dsPage struct {
		Items []struct {
			ID      string `json:"id"`
			Storage string `json:"storage"`
		} `json:"items"`
	}
	if code := getJSON(base, "/v1/datasets", &dsPage); code != http.StatusOK || len(dsPage.Items) != 1 || dsPage.Items[0].Storage != "paged" {
		t.Fatalf("datasets: %d (%+v listed)", code, dsPage.Items)
	}
	dsID := dsPage.Items[0].ID
	body, _ := json.Marshal(map[string]any{"dataset": dsID, "task": "mine-fds"})
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	jobID = job.ID
	deadline := time.Now().Add(60 * time.Second)
	for {
		var v struct{ State string }
		getJSON(base, "/v1/jobs/"+job.ID, &v)
		jobState = v.State
		if jobState == "done" {
			break
		}
		if jobState == "failed" || jobState == "canceled" {
			t.Fatalf("job %s ended in %s", job.ID, jobState)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 60s; daemon output:\n%s", job.ID, jobState, out)
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop(errc)

	// Second life over the same store: no CLI dataset this time.
	base, errc = boot("-addr", "127.0.0.1:0", "-workers", "1", "-persist", storeDir)
	defer stop(errc)

	dsPage.Items = nil
	if code := getJSON(base, "/v1/datasets", &dsPage); code != http.StatusOK ||
		len(dsPage.Items) != 1 || dsPage.Items[0].ID != dsID || dsPage.Items[0].Storage != "paged" {
		t.Fatalf("recovered datasets: %d (%+v), want %s", code, dsPage.Items, dsID)
	}
	var rec struct {
		State     string `json:"state"`
		Recovered bool   `json:"recovered"`
	}
	code := getJSON(base, "/v1/jobs/"+job.ID, &rec)
	jobState = rec.State
	if code != http.StatusOK || rec.State != "done" || !rec.Recovered {
		t.Fatalf("recovered job: %d %+v", code, rec)
	}
	if code := getJSON(base, "/v1/jobs/"+job.ID+"/result", nil); code != http.StatusOK {
		t.Fatalf("recovered result: %d", code)
	}
	resp, err = http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var hit struct {
		State    string `json:"state"`
		CacheHit bool   `json:"cache_hit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hit); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !hit.CacheHit || hit.State != "done" {
		t.Fatalf("post-restart resubmission: %+v, want instant cache hit", hit)
	}
}

// TestSIGTERMAtReady: a SIGTERM sent the moment the daemon reports its
// address drains it; the signal handler is in place before ready is
// sent, so the signal cannot fall on the process's default action.
func TestSIGTERMAtReady(t *testing.T) {
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	out := &daemonOutput{}
	go func() { errc <- run([]string{"-addr", "127.0.0.1:0"}, out, ready) }()
	select {
	case <-ready:
	case err := <-errc:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not become ready within 30s; its output:\n%s", out)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil && !strings.Contains(err.Error(), "Server closed") {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon did not stop within 60s of SIGTERM; its output:\n%s", out)
	}
	if !strings.Contains(out.String(), "draining jobs") {
		t.Errorf("the daemon did not drain; its output:\n%s", out)
	}
}

func TestRunBadArgs(t *testing.T) {
	if err := run([]string{"-addr", "127.0.0.1:0", "/nonexistent.csv"}, io.Discard, nil); err == nil {
		t.Error("unreadable dataset path should fail startup")
	}
	if err := run([]string{"-badflag"}, io.Discard, nil); err == nil {
		t.Error("unknown flag should fail")
	}
}
