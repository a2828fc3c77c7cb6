#!/usr/bin/env bash
# Runs the information-theoretic kernel and AIB engine benchmarks with
# -benchmem and records the results as JSON (default BENCH_1.json in the
# repo root; pass a different path as $1). BENCHTIME overrides the
# per-benchmark -benchtime (default 1x: one timed run per benchmark, fast
# and adequate for the second-scale engine benchmarks). BENCH_CPUS
# overrides the -cpu list (default "1,4"): each benchmark runs once per
# GOMAXPROCS value and every JSON entry records its own "cpus", so the
# multi-core scaling of the parallel kernels is measured, not assumed.
# BENCH_PATTERN overrides the benchmark selection regex entirely, so a
# focused CI leg (e.g. the incremental append gate) can run one
# benchmark family without paying for the full suite.
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-BENCH_1.json}
pattern=${BENCH_PATTERN:-'^(BenchmarkAIBInit|BenchmarkAgglomerate|BenchmarkMicroAIB|BenchmarkMicroEntropy|BenchmarkMicroJS|BenchmarkMicroDeltaISmallVsLarge|BenchmarkMicroDCFTreeInsert|BenchmarkDCFTreeInsert|BenchmarkLimboAssign|BenchmarkPhase1AtZero|BenchmarkPhase2|BenchmarkPartition|BenchmarkRankFDs|BenchmarkDedup|BenchmarkMicroRADRTR|BenchmarkTANE|BenchmarkMineApprox|BenchmarkPagedScan|BenchmarkPagedTANE|BenchmarkAppendRemine)$'}

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench "$pattern" -benchmem -cpu "${BENCH_CPUS:-1,4}" \
  -benchtime "${BENCHTIME:-1x}" -timeout 45m . | tee "$tmp"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v cpus="$(nproc)" \
    -v gover="$(go version | awk '{print $3}')" '
BEGIN { n = 0; cpu = "unknown" } # `go test` omits the cpu: line on some platforms
/^cpu:/ { sub(/^cpu: */, ""); if ($0 != "") cpu = $0 }
/^Benchmark/ {
    name = $1; iters = $2
    # go test appends "-N" to the name when GOMAXPROCS is N != 1; strip
    # it into a per-entry cpus field so runs at different widths compare
    # like against like.
    bcpus = 1
    if (match(name, /-[0-9]+$/)) {
        bcpus = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    }
    ns = "null"; bytes = "null"; allocs = "null"
    for (i = 3; i <= NF; i++) {
        if ($i == "ns/op")     ns     = $(i-1)
        if ($i == "B/op")      bytes  = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    line[n++] = sprintf("    {\"name\": \"%s\", \"cpus\": %s, \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
                        name, bcpus, iters, ns, bytes, allocs)
}
END {
    print "{"
    printf "  \"generated\": \"%s\",\n", date
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"cpus\": %s,\n", cpus
    printf "  \"go_version\": \"%s\",\n", gover
    print "  \"benchmarks\": ["
    for (i = 0; i < n; i++) printf "%s%s\n", line[i], (i < n-1 ? "," : "")
    print "  ]"
    print "}"
}' "$tmp" > "$out"

echo "wrote $out"
