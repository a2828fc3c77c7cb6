#!/usr/bin/env bash
# Alternating parent/change pairs of the end-to-end benchmark — the
# comparison every perf or simplicity PR owes (choosing-metrics guide,
# section 8), done by one command instead of by hand.
#
#   scripts/pairs.sh PARENT_CHECKOUT [-pairs N] [-workloads a,b,…]
#
# For every workload it runs `benchmark/run.sh -workload W -trace 0` N
# times (default 10) in PARENT_CHECKOUT (a clone or archive of the parent
# commit) and N times in this checkout, alternating which side goes
# first, and reads the last line of each run — the JSON result. Per
# workload × end-to-end metric of BENCHMARK.json it prints
#
#   median [Q1, Q3] parent → median [Q1, Q3] change, change ÷ parent, pairs won
#
# with the quartiles benchmark/stats.go computes (Python's exclusive
# method) and ties winning for neither side, then appends one record —
# commit, parent, nproc, go, pairs and the table with every run's value —
# to BENCH_2.json, the append-only trajectory ROADMAP item 1a asks for
# (a JSON array, one record per line).
# Exits non-zero if any run fails a session or an output check; the
# record is still appended so the failure is on file.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/pairs.sh PARENT_CHECKOUT [-pairs N] [-workloads a,b,…]" >&2
  exit 2
}
[ $# -ge 1 ] || usage
parent=$1
shift
[ -f "$parent/benchmark/run.sh" ] || { echo "pairs: $parent has no benchmark/run.sh" >&2; exit 2; }
pairs=10
workloads=$(jq -r '[.workloads[].name] | join(",")' BENCHMARK.json)
while [ $# -gt 0 ]; do
  case $1 in
    -pairs) pairs=$2; shift 2 ;;
    -workloads) workloads=$2; shift 2 ;;
    *) usage ;;
  esac
done

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# run SIDE DIR WORKLOAD PAIR appends the run's result line, tagged, to $runs.
run() {
  local line
  line=$(bash "$2/benchmark/run.sh" -workload "$3" -trace 0 | tail -n 1) || true
  if ! jq -e 'has("metrics")' >/dev/null 2>&1 <<<"$line"; then
    echo "pairs: $1 run of $3 (pair $4) printed no result line" >&2
    exit 1
  fi
  jq -c --arg side "$1" --arg w "$3" --argjson pair "$4" \
    '{workload: $w, side: $side, pair: $pair} + .' <<<"$line" >>"$runs"
  echo "pairs: $3 pair $4 $1 done" >&2
}

for w in ${workloads//,/ }; do
  for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
      if [ "$side" = parent ]; then run parent "$parent" "$w" "$p"; else run change . "$w" "$p"; fi
    done
  done
done

record=$(jq -s \
  --arg commit "$(git describe --always --dirty)" \
  --arg parent "$(git -C "$parent" rev-parse --short HEAD 2>/dev/null || basename "$parent")" \
  --arg go "$(go env GOVERSION)" --argjson nproc "$(nproc)" --argjson pairs "$pairs" \
  --slurpfile bench BENCHMARK.json '
  def quartile(i): sort as $s | length as $n
    | if $n < 2 then ($s[0] // 0) else
        ([([(i * ($n + 1) / 4 | floor), 1] | max), $n - 1] | min) as $j
        | (i * ($n + 1) - $j * 4) as $d
        | ($s[$j - 1] * (4 - $d) + $s[$j] * $d) / 4
      end;
  def stats: {median: quartile(2), q1: quartile(1), q3: quartile(3), runs: .};
  def wins($a; $b; $better): # pairs in which $a reads better than $b
    [range(0; $a | length) | select(if $better == "lower" then $a[.] < $b[.] else $a[.] > $b[.] end)] | length;
  . as $runs
  | {commit: $commit, parent: $parent, nproc: $nproc, go: $go, pairs: $pairs,
     failed_runs: [$runs[] | select(.failed > 0 or (.correct | not)) | {workload, side, pair, attempted, failed, correct}],
     table: [
       ($runs | map(.workload) | unique[]) as $w
       | $bench[0].end_to_end[] as $m
       | ([$runs[] | select(.workload == $w and .side == "parent")] | sort_by(.pair) | map(.metrics[$m.name].value)) as $p
       | ([$runs[] | select(.workload == $w and .side == "change")] | sort_by(.pair) | map(.metrics[$m.name].value)) as $c
       | {workload: $w, metric: $m.name, unit: $m.unit, better: $m.better, bound: $m.bound,
          parent: ($p | stats), change: ($c | stats),
          ratio: (if ($p | quartile(2)) == 0 then null else ($c | quartile(2)) / ($p | quartile(2)) end),
          won: wins($c; $p; $m.better), lost: wins($p; $c; $m.better)}
     ]}' "$runs")

jq -r '
  def f: # four significant digits
    if . == null then "n/a" elif . == 0 then "0" else
      pow(10; 3 - (fabs | log10 | floor)) as $m | (. * $m | round) / $m | tostring
    end;
  "workload  metric  parent median [Q1, Q3] → change median [Q1, Q3]   change ÷ parent   pairs won",
  (.pairs as $n | .table[]
   | "\(.workload)  \(.metric) (\(.unit), \(.better) is better)  \(.parent.median | f) [\(.parent.q1 | f), \(.parent.q3 | f)] → \(.change.median | f) [\(.change.q1 | f), \(.change.q3 | f)]   ×\(.ratio | f) of \(.parent.median | f)   \(.won)/\($n) (lost \(.lost))")' <<<"$record"

[ -f BENCH_2.json ] || echo '[]' >BENCH_2.json
jq -rs '"[", (.[0] + [.[1]] | map(tojson) | join(",\n")), "]"' BENCH_2.json - <<<"$record" >BENCH_2.json.tmp
mv BENCH_2.json.tmp BENCH_2.json
echo "pairs: appended record $(jq length BENCH_2.json) to BENCH_2.json" >&2

if [ "$(jq '.failed_runs | length' <<<"$record")" -gt 0 ]; then
  echo "pairs: FAIL — runs with failed sessions or output checks:" >&2
  jq -c '.failed_runs[]' <<<"$record" >&2
  exit 1
fi
