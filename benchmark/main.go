// Command benchmark is structmine's one ruler: four session workloads
// driven against the real structmined daemon over loopback HTTP, five
// end-to-end metrics per workload, and per-layer metrics from counters,
// files and an in-process trace. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
)

// defaultSeconds is the run length BENCHMARK.json fixes (run_seconds).
const defaultSeconds = 20

// buildDir holds the compiled daemon; outDir the traces and temp dirs.
var (
	buildDir = filepath.Join(".bench_build", "bin")
	outDir   = filepath.Join("benchmark", "out")
)

func workloadNames() []string {
	var out []string
	for _, w := range coldWorkloads {
		out = append(out, w.name)
	}
	return append(out, hotName)
}

// result is the last line a single run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "run one workload: "+strings.Join(workloadNames(), ", ")+" (default: all)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs and of the serve_hot schedule")
	seconds := flag.Float64("seconds", defaultSeconds, "run length; session and operation counts are derived from it")
	trace := flag.Int("trace", -1, "0: one end-to-end run, 1: one traced run; prints one JSON result line (needs -workload)")
	scale := flag.String("scale", "full", "full, or smoke: 3 sessions per workload, 1000 serve_hot operations")
	repeat := flag.Int("repeat", 0, "run two sets of N end-to-end runs, print medians and quartiles, fail if they disagree beyond the bounds")
	corrupt := flag.Bool("corrupt", false, "flip one artifact byte before the output check: the run must fail")
	flag.Parse()

	code := 0
	if err := run(*workload, *seed, *seconds, *trace, *scale, *repeat, *corrupt); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = 1
	}
	reapAll()
	os.Exit(code)
}

func run(workload string, seed int64, seconds float64, trace int, scale string, repeat int, corrupt bool) error {
	if scale != "full" && scale != "smoke" {
		return fmt.Errorf("-scale %q: want full or smoke", scale)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds %g: want a positive length", seconds)
	}
	names := workloadNames()
	if workload != "" {
		if !slices.Contains(names, workload) {
			return fmt.Errorf("-workload %q: want one of %s", workload, strings.Join(names, ", "))
		}
		names = []string{workload}
	}
	for _, dir := range []string{buildDir, outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	// A signal must not leave daemons behind.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		reapAll()
		os.Exit(1)
	}()

	bin, buildS, err := buildDaemon(buildDir)
	if err != nil {
		return err
	}
	cfg := runConfig{
		seed: seed, seconds: seconds, smoke: scale == "smoke",
		daemonBin: bin, outDir: outDir, corrupt: corrupt,
	}
	fmt.Printf("# structmine benchmark: seed %d, scale %s, seconds %g, nproc %d, GOMAXPROCS %d, %s, commit %s, fsync off (daemon default), poll %s\n",
		seed, scale, seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), pollInterval)

	switch {
	case trace >= 0:
		if workload == "" {
			return fmt.Errorf("-trace needs -workload")
		}
		cfg.trace = trace == 1
		res, err := one(cfg, workload, buildS)
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d sessions failed", workload, res.Failed, res.Attempted)
		}
		return nil
	case repeat > 0:
		return repeatRuns(cfg, names, repeat, buildS)
	default:
		return suite(cfg, names, buildS)
	}
}

// one performs one run of one workload and assembles its result line.
// Output failures are printed and reported through Correct; only a run
// that could not be carried out at all returns an error.
func one(cfg runConfig, workload string, buildS float64) (*result, error) {
	if workload == hotName {
		run, err := runHot(cfg)
		if err != nil {
			return nil, err
		}
		problems := run.check()
		for _, p := range problems {
			fmt.Printf("WRONG %s: %s\n", hotName, p)
		}
		res := &result{Correct: len(problems) == 0, Attempted: len(run.results), Failed: run.failed()}
		if !cfg.trace {
			res.Metrics = hotEndToEnd(run).values(endToEnd)
			return res, nil
		}
		sessions := 100 * tracedSessions
		if cfg.smoke {
			sessions = 100
		}
		tr, spans, err := traceHot(run.in, sessions)
		if err != nil {
			return nil, fmt.Errorf("%s: trace: %w", hotName, err)
		}
		if err := writeTrace(cfg, hotName, spans); err != nil {
			return nil, err
		}
		res.Metrics = hotPerLayer(run, tr, buildS).values(perLayer)
		return res, nil
	}
	var w *coldWorkload
	for _, c := range coldWorkloads {
		if c.name == workload {
			w = c
		}
	}
	if cfg.trace {
		// The in-process sessions take the other half of the run length.
		cfg.seconds /= 2
	}
	run, err := runCold(cfg, w)
	if err != nil {
		return nil, err
	}
	for _, s := range run.sessions {
		if s.err != nil {
			fmt.Printf("FAILED %s: session %d: %v\n", w.name, s.index, s.err)
		}
	}
	for _, a := range run.wrong {
		fmt.Printf("WRONG %s: session %d: %s\n", w.name, a.session, a.msg)
	}
	res := &result{Correct: run.failed() == 0, Attempted: len(run.sessions), Failed: run.failed()}
	if !cfg.trace {
		res.Metrics = coldEndToEnd(run).values(endToEnd)
		return res, nil
	}
	sessions := tracedSessions
	if cfg.smoke {
		sessions = 2
	}
	tr, spans, err := traceCold(cfg, w, run.in, sessions)
	if err != nil {
		return nil, fmt.Errorf("%s: trace: %w", w.name, err)
	}
	if err := writeTrace(cfg, w.name, spans); err != nil {
		return nil, err
	}
	res.Metrics = coldPerLayer(run, tr, buildS).values(perLayer)
	return res, nil
}

func writeTrace(cfg runConfig, workload string, tr *tracer) error {
	path := filepath.Join(cfg.outDir, "trace-"+workload+".json")
	return tr.write(path, map[string]any{
		"workload": workload, "seed": cfg.seed, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "commit": commit(),
	})
}

// suite runs every selected workload end to end and traced, prints every
// metric by name with its unit, and fails on any wrong output.
func suite(cfg runConfig, names []string, buildS float64) error {
	var bad []string
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			c := cfg
			c.trace = traced
			res, err := one(c, name, buildS)
			if err != nil {
				return err
			}
			defs, kind := endToEnd, "end-to-end"
			if traced {
				defs, kind = perLayer, "per-layer"
			}
			fmt.Printf("\n== %s, %s: %d sessions attempted, %d failed, failed_frac %g\n",
				name, kind, res.Attempted, res.Failed, float64(res.Failed)/float64(max(1, res.Attempted)))
			for _, d := range defs {
				fmt.Printf("%-38s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
			}
			if !res.Correct {
				bad = append(bad, fmt.Sprintf("%s (%s)", name, kind))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("wrong output on %s", strings.Join(bad, ", "))
	}
	return nil
}

// bounds reads each end-to-end metric's bound from BENCHMARK.json.
func bounds() (map[string]float64, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// repeatRuns makes two sets of n end-to-end runs per workload, run i of
// either set on seed+i, and applies the acceptance rule: within a set the
// interquartile range of every metric but setup_s stays within the
// metric's bound (as a share of the median), and the second set's median
// is not worse than the first's by more than the bound.
func repeatRuns(cfg runConfig, names []string, n int, buildS float64) error {
	bound, err := bounds()
	if err != nil {
		return err
	}
	var bad []string
	for _, name := range names {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < n; i++ {
				c := cfg
				c.seed = cfg.seed + int64(i)
				res, err := one(c, name, buildS)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s: wrong output in set %d, run %d", name, set+1, i)
				}
				for _, d := range endToEnd {
					sets[set][d.name] = append(sets[set][d.name], res.Metrics[d.name].Value)
				}
			}
		}
		fmt.Printf("\n== %s: two sets of %d runs\n", name, n)
		fmt.Printf("%-20s %5s %12s %12s %12s %8s %8s\n", "metric", "set", "q1", "median", "q3", "spread", "bound")
		for _, d := range endToEnd {
			var med [2]float64
			for set := range sets {
				q1, q2, q3 := quartiles(sets[set][d.name])
				med[set] = q2
				spread := (q3 - q1) / q2
				fmt.Printf("%-20s %5d %12.4f %12.4f %12.4f %7.2f%% %7.2f%%\n", d.name, set+1, q1, q2, q3, 100*spread, 100*bound[d.name])
				if d.name != "setup_s" && spread > bound[d.name] {
					bad = append(bad, fmt.Sprintf("%s %s: spread %.1f%% of set %d exceeds the bound", name, d.name, 100*spread, set+1))
				}
			}
			worse := (med[1] - med[0]) / med[0]
			if d.better == "higher" {
				worse = -worse
			}
			if worse > bound[d.name] {
				bad = append(bad, fmt.Sprintf("%s %s: second median is %.1f%% worse than the first", name, d.name, 100*worse))
			}
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		fmt.Println("UNSTEADY", b)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d metrics disagree between run sets beyond their bounds", len(bad))
	}
	return nil
}

// commit names the checked-out commit, or "unknown" outside a git
// repository (the acceptance driver's checkout is not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
