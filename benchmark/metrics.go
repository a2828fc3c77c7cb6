package main

import (
	"strings"
)

// metricDef names one metric the harness reports. BENCHMARK.json lists
// the same names, units and directions; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics a user of the daemon would see; every
// workload reports all of them from a run with tracing off. failed_frac
// is not among them: it is 0 on a healthy run, so it travels as the
// result line's attempted/failed pair and any failure fails the run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"session_p50_ms", "ms", "lower"},
	{"sessions_per_s", "1/s", "higher"},
	{"cpu_s_per_session", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the single-layer metrics of a traced run. A metric whose
// layer a workload does not exercise reads 0 on that workload.
var perLayer = []metricDef{
	{"relation.parse_ms", "ms", "lower"},
	{"relation.parse_mb_per_s", "MB/s", "higher"},
	{"relation.scan_ms", "ms", "lower"},
	{"relation.parse_alloc_mb", "MB", "lower"},

	{"colstore.ingest_ms", "ms", "lower"},
	{"colstore.ingest_mb_per_s", "MB/s", "higher"},
	{"colstore.open_ms", "ms", "lower"},
	{"colstore.scan_cold_ms", "ms", "lower"},
	{"colstore.scan_warm_ms", "ms", "lower"},
	{"colstore.append_ms", "ms", "lower"},
	{"colstore.file_bytes_per_input_byte", "ratio", "lower"},
	{"colstore.pages_read_per_session", "count", "lower"},

	{"store.disk_bytes_per_input_byte", "ratio", "lower"},
	{"store.recover_s", "s", "lower"},
	{"store.artifact_put_ms", "ms", "lower"},
	{"store.artifact_get_ms", "ms", "lower"},

	{"primcache.hit_ratio", "ratio", "higher"},
	{"primcache.evictions_per_session", "count", "lower"},
	{"primcache.bytes", "bytes", "lower"},
	{"primcache.miss_ms", "ms", "lower"},
	{"primcache.hit_ms", "ms", "lower"},

	{"fd.tane_ms", "ms", "lower"},
	{"fd.mincover_ms", "ms", "lower"},
	{"fd.approx_ms", "ms", "lower"},
	{"fd.tane_columns_ms", "ms", "lower"},
	{"fd.delta_ms", "ms", "lower"},
	{"fd.products_per_session", "count", "lower"},
	{"fd.levels_per_session", "count", "lower"},
	{"fd.num_fds", "count", "lower"},

	{"limbo.tree_build_ms", "ms", "lower"},
	{"limbo.assign_ms", "ms", "lower"},
	{"limbo.inserts_per_session", "count", "lower"},

	{"ib.agglomerate_ms", "ms", "lower"},
	{"ib.merges_per_session", "count", "lower"},

	{"tuples.compress_ms", "ms", "lower"},
	{"tuples.partition_ms", "ms", "lower"},
	{"tuples.dedup_ms", "ms", "lower"},

	{"values.objects_ms", "ms", "lower"},
	{"values.cluster_ms", "ms", "lower"},
	{"attrs.group_ms", "ms", "lower"},
	{"fdrank.rank_ms", "ms", "lower"},
	{"measures.rad_rtr_ms", "ms", "lower"},

	{"task.describe_ms", "ms", "lower"},
	{"task.mine_fds_ms", "ms", "lower"},
	{"task.approx_fds_ms", "ms", "lower"},
	{"task.rank_fds_ms", "ms", "lower"},
	{"task.partition_ms", "ms", "lower"},
	{"task.dedup_ms", "ms", "lower"},
	{"task.encode_ms", "ms", "lower"},
	{"task.artifact_bytes", "bytes", "lower"},

	{"exec.steals_per_session", "count", "lower"},
	{"exec.queue_wait_ms_per_session", "ms", "lower"},
	{"exec.arena_highwater_mb", "MB", "lower"},

	{"server.register_p50_ms", "ms", "lower"},
	{"server.append_p50_ms", "ms", "lower"},
	{"server.job_describe_p50_ms", "ms", "lower"},
	{"server.job_mine_fds_p50_ms", "ms", "lower"},
	{"server.job_approx_fds_p50_ms", "ms", "lower"},
	{"server.job_rank_fds_p50_ms", "ms", "lower"},
	{"server.job_partition_p50_ms", "ms", "lower"},
	{"server.job_dedup_p50_ms", "ms", "lower"},
	{"server.polls_per_session", "count", "lower"},
	{"server.overhead_ms", "ms", "lower"},
	{"server.cache_hit_p50_ms", "ms", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.list_p50_ms", "ms", "lower"},
	{"server.status_429", "count", "lower"},
	{"server.status_5xx", "count", "lower"},
	{"server.session_p90_ms", "ms", "lower"},
	{"server.session_p99_ms", "ms", "lower"},
	{"server.session_max_ms", "ms", "lower"},
	{"server.session_samples", "count", "higher"},

	{"cluster.proxied_p50_ms", "ms", "lower"},
	{"cluster.proxied_p99_ms", "ms", "lower"},
	{"cluster.hop_overhead_ms", "ms", "lower"},
	{"cluster.proxied_requests", "count", "lower"},

	{"harness.client_cpu_s", "s", "lower"},
	{"harness.build_s", "s", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.inproc_session_ms", "ms", "lower"},
}

// report maps metric names to measurements, filling in units from the
// definitions and zeros for the metrics a run did not set.
type report map[string]float64

func (r report) values(defs []metricDef) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.name] = value{Value: r[d.name], Unit: d.unit}
	}
	return out
}

// supported returns the percentile, or 0 when the sample cannot carry it.
func supported(xs []float64, p float64) float64 {
	if v, ok := percentile(xs, p); ok {
		return v
	}
	return 0
}

func coldEndToEnd(run *coldRun) report {
	ok := run.okSessions()
	var times []float64
	for _, s := range ok {
		times = append(times, s.ms)
	}
	correct := len(run.sessions) - run.failed()
	r := report{
		"setup_s":        median(run.setupS),
		"session_p50_ms": median(times),
		"peak_rss_mb":    run.rssMB,
	}
	if run.wallS > 0 {
		r["sessions_per_s"] = float64(correct) / run.wallS
	}
	if n := len(run.sessions); n > 0 {
		r["cpu_s_per_session"] = run.cpuS / float64(n)
	}
	return r
}

// coldPerLayer assembles the per-layer report of a traced cold run: what
// the end-to-end phase observed from outside the daemon, plus the
// in-process trace.
func coldPerLayer(run *coldRun, tr *traced, buildS float64) report {
	r := report{}
	ok := run.okSessions()
	n := float64(max(1, len(run.sessions)))
	p := run.prom

	var sessionMS, registerMS, appendMS, polls, jobsMS []float64
	byTask := map[string][]float64{}
	numFDs := 0.0
	for _, s := range ok {
		sessionMS = append(sessionMS, s.ms)
		registerMS = append(registerMS, s.registerMS)
		if s.appendMS > 0 {
			appendMS = append(appendMS, s.appendMS)
		}
		np, jobs := 0, 0.0
		for _, a := range s.answers {
			byTask[a.q.Task] = append(byTask[a.q.Task], a.ms)
			np += a.polls
			jobs += a.ms
		}
		polls = append(polls, float64(np))
		jobsMS = append(jobsMS, jobs)
	}
	if len(ok) > 0 {
		numFDs = firstNumMinimal(ok[0])
	}

	r["server.register_p50_ms"] = median(registerMS)
	r["server.append_p50_ms"] = median(appendMS)
	for task, xs := range byTask {
		r["server.job_"+strings.ReplaceAll(task, "-", "_")+"_p50_ms"] = median(xs)
	}
	r["server.polls_per_session"] = median(polls)
	r["server.status_429"] = float64(run.statuses.s429)
	r["server.status_5xx"] = float64(run.statuses.s5xx)
	r["server.session_p90_ms"] = supported(sessionMS, 90)
	r["server.session_p99_ms"] = supported(sessionMS, 99)
	r["server.session_max_ms"] = maxOf(sessionMS)
	r["server.session_samples"] = float64(len(sessionMS))
	hits, misses := p.sum("structmined_cache_hits_total"), p.sum("structmined_cache_misses_total")
	if hits+misses > 0 {
		r["server.cache_hit_ratio"] = hits / (hits + misses)
	}

	r["fd.products_per_session"] = p.sum("structmine_tane_products_total") / n
	r["fd.levels_per_session"] = p.sum("structmine_tane_levels") / n
	r["fd.num_fds"] = numFDs
	r["limbo.inserts_per_session"] = p.sum("structmine_limbo_inserts_total") / n
	r["ib.merges_per_session"] = p.sum("structmine_aib_merges_total") / n
	r["exec.steals_per_session"] = p.sum("structmine_exec_steals_total") / n
	r["exec.queue_wait_ms_per_session"] = 1000 * p.sum("structmine_exec_queue_wait_seconds_sum") / n
	r["exec.arena_highwater_mb"] = p.after.sum("structmine_exec_arena_highwater_bytes") / 1e6

	phits, pmisses := p.sum("structmine_primcache_hits_total"), p.sum("structmine_primcache_misses_total")
	if phits+pmisses > 0 {
		r["primcache.hit_ratio"] = phits / (phits + pmisses)
	}
	r["primcache.evictions_per_session"] = p.sum("structmine_primcache_evictions_total") / n
	r["primcache.bytes"] = p.after.sum("structmine_primcache_bytes")
	r["colstore.pages_read_per_session"] = p.sum("structmine_colstore_pages_read_total") / n
	if run.w.persist && run.uploadedBytes > 0 {
		r["colstore.file_bytes_per_input_byte"] = float64(run.colFileBytes) / float64(run.uploadedBytes)
		r["store.disk_bytes_per_input_byte"] = float64(run.diskBytes) / float64(run.uploadedBytes)
	}
	r["store.recover_s"] = run.recoverS

	r["harness.client_cpu_s"] = run.clientS
	r["harness.build_s"] = buildS

	addTrace(r, tr)
	// What a server change could at most save per session: the jobs as
	// the client saw them minus the tasks as the engines ran them.
	taskMS := 0.0
	for name, ms := range tr.sum.layerMS {
		if strings.HasPrefix(name, "task.") && name != "task.summary" && name != "task.encode" {
			taskMS += ms
		}
	}
	r["server.overhead_ms"] = median(jobsMS) - taskMS
	return r
}

// addTrace copies the in-process per-layer medians into the report.
func addTrace(r report, tr *traced) {
	for name, ms := range tr.sum.layerMS {
		r[name+"_ms"] = ms
	}
	r["trace.coverage"] = tr.sum.coverage
	r["trace.inproc_session_ms"] = tr.sum.sessionMS
	r["relation.parse_alloc_mb"] = tr.parseAllocMB
	r["task.artifact_bytes"] = tr.artifactBytes
	if ms := r["relation.parse_ms"]; ms > 0 {
		r["relation.parse_mb_per_s"] = tr.parseMB / (ms / 1000)
	}
	if ms := r["colstore.ingest_ms"]; ms > 0 {
		r["colstore.ingest_mb_per_s"] = tr.parseMB / (ms / 1000)
	}
}

// firstNumMinimal reads num_minimal off the session's first artifact
// that carries it (mine-fds or rank-fds).
func firstNumMinimal(s sessionResult) float64 {
	for _, a := range s.answers {
		raw, err := resultMember(a.envelope)
		if err != nil {
			continue
		}
		v, err := decodeJSON(raw)
		if err != nil {
			continue
		}
		if obj, ok := v.(map[string]any); ok {
			if f, err := number(obj["num_minimal"]); err == nil {
				return f
			}
		}
	}
	return 0
}

func (r *hotRun) times(kinds ...hotKind) []float64 {
	var out []float64
	for _, res := range r.results {
		if res.err != nil {
			continue
		}
		for _, k := range kinds {
			if res.kind == k {
				out = append(out, res.ms)
			}
		}
	}
	return out
}

func hotEndToEnd(run *hotRun) report {
	r := report{
		"setup_s":        median(run.setupS),
		"session_p50_ms": median(run.times(hotDirect, hotProxied)),
		"peak_rss_mb":    run.rssMB,
	}
	if run.wallS > 0 {
		r["sessions_per_s"] = float64(len(run.results)-run.failed()) / run.wallS
	}
	if n := len(run.results); n > 0 {
		r["cpu_s_per_session"] = run.cpuS / float64(n)
	}
	return r
}

func hotPerLayer(run *hotRun, tr *traced, buildS float64) report {
	r := report{}
	direct, proxied := run.times(hotDirect), run.times(hotProxied)
	questions := run.times(hotDirect, hotProxied)
	r["server.cache_hit_p50_ms"] = median(direct)
	r["server.list_p50_ms"] = median(run.times(hotList))
	r["server.status_429"] = float64(run.status.s429)
	r["server.status_5xx"] = float64(run.status.s5xx)
	r["server.session_p90_ms"] = supported(questions, 90)
	r["server.session_p99_ms"] = supported(questions, 99)
	r["server.session_max_ms"] = maxOf(questions)
	r["server.session_samples"] = float64(len(questions))
	hits, misses := run.owner.sum("structmined_cache_hits_total"), run.owner.sum("structmined_cache_misses_total")
	if hits+misses > 0 {
		r["server.cache_hit_ratio"] = hits / (hits + misses)
	}
	r["cluster.proxied_p50_ms"] = median(proxied)
	r["cluster.proxied_p99_ms"] = supported(proxied, 99)
	r["cluster.hop_overhead_ms"] = median(proxied) - median(direct)
	r["cluster.proxied_requests"] = run.proxiedRequests()
	r["harness.client_cpu_s"] = run.clientS
	r["harness.build_s"] = buildS
	addTrace(r, tr)
	return r
}
