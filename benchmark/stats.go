package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minSamplesBeyond is how many samples must lie beyond a percentile for
// it to be reported (choosing-metrics guide, section 1).
const minSamplesBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs. ok is false
// when fewer than minSamplesBeyond samples lie beyond it: the sample
// cannot support that tail, and the caller reports it as absent.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := min(max(int(math.Ceil(float64(n)*p/100))-1, 0), n-1)
	return s[rank], n-1-rank >= minSamplesBeyond
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// quartiles returns Q1, Q2, Q3 as Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method) computes them — the acceptance
// harness uses that function, so -repeat must agree with it.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0], xs[0]
		}
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// promSample is one series of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promText is a parsed /v1/metrics scrape.
type promText []promSample

// parseProm parses the Prometheus text format far enough for counter
// and gauge deltas: comment lines are skipped, label values may contain
// escaped quotes, timestamps are ignored.
func parseProm(text string) (promText, error) {
	var out promText
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s := promSample{labels: map[string]string{}}
		rest := line
		if i := strings.IndexAny(rest, "{ "); i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		} else {
			s.name, rest = rest[:i], rest[i:]
		}
		if rest[0] == '{' {
			rest = rest[1:]
			for {
				rest = strings.TrimLeft(rest, ", ")
				if rest == "" {
					return nil, fmt.Errorf("metrics: unterminated labels in %q", line)
				}
				if rest[0] == '}' {
					rest = rest[1:]
					break
				}
				eq := strings.Index(rest, "=\"")
				if eq < 0 {
					return nil, fmt.Errorf("metrics: malformed label in %q", line)
				}
				key := rest[:eq]
				rest = rest[eq+2:]
				var val strings.Builder
				closed := false
				for i := 0; i < len(rest); i++ {
					c := rest[i]
					if c == '\\' && i+1 < len(rest) {
						i++
						switch rest[i] {
						case 'n':
							val.WriteByte('\n')
						default:
							val.WriteByte(rest[i])
						}
						continue
					}
					if c == '"' {
						rest = rest[i+1:]
						closed = true
						break
					}
					val.WriteByte(c)
				}
				if !closed {
					return nil, fmt.Errorf("metrics: unterminated label value in %q", line)
				}
				s.labels[key] = val.String()
			}
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: value of %q: %w", line, err)
		}
		s.value = v
		out = append(out, s)
	}
	return out, sc.Err()
}

// sum adds up every series of the family whose labels include all of
// want (given as key, value pairs).
func (p promText) sum(name string, want ...string) float64 {
	total := 0.0
next:
	for _, s := range p {
		if s.name != name {
			continue
		}
		for i := 0; i+1 < len(want); i += 2 {
			if s.labels[want[i]] != want[i+1] {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// promDelta is after − before, per family and label filter.
type promDelta struct{ before, after promText }

func (d promDelta) sum(name string, want ...string) float64 {
	return d.after.sum(name, want...) - d.before.sum(name, want...)
}

// parseProcStatCPU extracts utime+stime, in clock ticks, from the
// contents of /proc/<pid>/stat. The command name (field 2) may contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(stat string) (ticks uint64, err error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return ut + st, nil
}

// parseVmHWM extracts the peak resident set size, in kB, from the
// contents of /proc/<pid>/status.
func parseVmHWM(status string) (kb uint64, err error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			return strconv.ParseUint(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}
