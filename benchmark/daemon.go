package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// userHz is the unit of /proc/<pid>/stat CPU times: USER_HZ is 100 on
// every Linux architecture Go supports.
const userHz = 100

// daemon is one structmined subprocess in its own process group.
type daemon struct {
	cmd    *exec.Cmd
	addr   string // host:port it listens on
	stderr *tailBuffer
	done   chan struct{} // closed once Wait has returned
}

// tailBuffer keeps the last few KiB written to it, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 8<<10; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// live tracks every daemon not yet reaped, so a failing run can kill
// what it started no matter where the failure happened.
var live struct {
	mu sync.Mutex
	m  map[*daemon]struct{}
}

// reapAll stops every daemon still running.
func reapAll() {
	live.mu.Lock()
	ds := make([]*daemon, 0, len(live.m))
	for d := range live.m {
		ds = append(ds, d)
	}
	live.mu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// startDaemon spawns the daemon binary and waits for its "listening on"
// line. The listen address is always passed explicitly by the caller.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	errTail := &tailBuffer{}
	cmd.Stderr = errTail
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, stderr: errTail, done: make(chan struct{})}
	live.mu.Lock()
	if live.m == nil {
		live.m = map[*daemon]struct{}{}
	}
	live.m[d] = struct{}{}
	live.mu.Unlock()

	addrc := make(chan string, 1)
	go func() {
		// Reads to EOF so the daemon never blocks on a full pipe, then
		// reaps the process.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "structmined listening on "); ok {
				select {
				case addrc <- a:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		_ = cmd.Wait()
		close(d.done)
	}()
	select {
	case d.addr = <-addrc:
	case <-d.done:
		d.forget()
		return nil, fmt.Errorf("daemon exited before listening: %s", errTail)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("daemon did not listen within 30s: %s", errTail)
	}
	return d, nil
}

func (d *daemon) forget() {
	live.mu.Lock()
	delete(live.m, d)
	live.mu.Unlock()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) signalGroup(sig syscall.Signal) {
	_ = syscall.Kill(-d.pid(), sig)
}

// stop terminates the daemon's process group: SIGTERM, then SIGKILL if
// it has not exited within the grace period. It returns once the
// process has been waited for. Safe to call more than once.
func (d *daemon) stop() {
	select {
	case <-d.done:
	default:
		d.signalGroup(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			d.signalGroup(syscall.SIGKILL)
			<-d.done
		}
	}
	d.forget()
}

// kill SIGKILLs the process group and waits for it: the crash of the
// recovery measurement.
func (d *daemon) kill() {
	d.signalGroup(syscall.SIGKILL)
	<-d.done
	d.forget()
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// cpuSeconds returns the daemon's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.pid()), "stat"))
	if err != nil {
		return 0, err
	}
	ticks, err := parseProcStatCPU(string(b))
	if err != nil {
		return 0, err
	}
	return float64(ticks) / userHz, nil
}

// peakRSSMB returns the daemon's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.pid()), "status"))
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(string(b))
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// selfCPUSeconds returns this process's own user+system CPU time.
func selfCPUSeconds() float64 {
	b, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0
	}
	ticks, err := parseProcStatCPU(string(b))
	if err != nil {
		return 0
	}
	return float64(ticks) / userHz
}

// freePorts asks the kernel for n distinct free loopback ports. The
// listeners are closed before returning, so a port can in principle be
// taken again before the daemon binds it; the daemon then fails to
// start and the run fails loudly.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// dirBytes sums the sizes of the regular files under dir; with suffix
// non-empty only files whose name ends in it are counted.
func dirBytes(dir, suffix string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !e.Type().IsRegular() || !strings.HasSuffix(e.Name(), suffix) {
			return nil
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// buildDaemon compiles cmd/structmined from the checkout's sources into
// outDir and returns the binary's path and how long the build took.
func buildDaemon(outDir string) (string, float64, error) {
	bin := filepath.Join(outDir, "structmined")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/structmined")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/structmined: %w\n%s", err, out.String())
	}
	return bin, time.Since(start).Seconds(), nil
}
