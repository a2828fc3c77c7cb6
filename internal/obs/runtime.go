package obs

import "runtime/metrics"

// The Go runtime's own cost, read from runtime/metrics at scrape time:
// the CPU its collector spends and the bytes the heap hands out. Off-heap
// memory (the exec arenas' mapped slabs) shows in neither; the exec
// package reports it itself.
func init() {
	for _, m := range []struct{ name, help, sample string }{
		{"structmine_go_gc_cpu_seconds_total",
			"Estimated CPU time the Go garbage collector has spent (runtime/metrics /cpu/classes/gc/total:cpu-seconds).",
			"/cpu/classes/gc/total:cpu-seconds"},
		{"structmine_go_heap_allocs_bytes_total",
			"Cumulative bytes allocated on the Go heap (runtime/metrics /gc/heap/allocs:bytes).",
			"/gc/heap/allocs:bytes"},
	} {
		sample := m.sample
		Default.CounterFunc(m.name, m.help, func() float64 { return readRuntime(sample) })
	}
}

// readRuntime reads one runtime/metrics sample as a float.
func readRuntime(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}
