#!/usr/bin/env bash
# End-to-end smoke test of the structmined service: boot a persistent
# daemon on a random port, register the generated DB2 sample, run a
# rank-fds job to completion over the /v1 API, assert the identical
# repeated query is answered from the artifact cache, and scrape the
# observability surface (/v1/metrics and the job's /trace). Then the
# crash-recovery phase: SIGKILL the daemon (no drain, no warning), boot
# a successor over the same -persist directory, and assert it recovers
# the dataset (paged, from its colstore file — the only thing -persist
# writes for a dataset), the old job record, and the artifact —
# the repeated query must be a cache hit without re-mining. The incremental append phase
# then drives POST /v1/datasets/{id}/append: epoch bump, cache miss on
# re-mine, delta artifact equal to a from-scratch mine of the
# concatenated contents, and a simulated crash inside the append window
# that must replay to exactly one application. Finishes with a SIGTERM
# to check graceful drain, then repeats the core flow on a fresh paged
# daemon. Both daemons' dedup and partition must reproduce, byte for
# byte after jq -cS, the artifacts the CLI mines from the resident parse
# of the same CSV.
#
# On failure the daemon log is copied to $SMOKE_ARTIFACT_DIR (when set),
# so CI can upload it as an artifact.
set -euo pipefail
cd "$(dirname "$0")/.."

for tool in curl jq; do
  if ! command -v "$tool" >/dev/null 2>&1; then
    echo "smoke: FAIL — required tool '$tool' is not installed (the smoke test drives the HTTP API with curl and parses responses with jq)" >&2
    exit 1
  fi
done

workdir=$(mktemp -d)
pid=""
status=1
cleanup() {
  if [ "$status" -ne 0 ] && [ -n "${SMOKE_ARTIFACT_DIR:-}" ] && [ -f "$workdir/log" ]; then
    mkdir -p "$SMOKE_ARTIFACT_DIR"
    cp "$workdir/log" "$SMOKE_ARTIFACT_DIR/structmined.log"
    echo "smoke: daemon log preserved at $SMOKE_ARTIFACT_DIR/structmined.log" >&2
  fi
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "smoke: building structmined and generating the DB2 sample"
go build -o "$workdir/structmined" ./cmd/structmined
go run ./cmd/datagen db2 -out "$workdir" >/dev/null

# The resident reference: what the CLI mines from its own parse of the
# sample, normalised as every daemon artifact below is (jq -cS).
rdedup=$(go run ./cmd/structmine dedup -json "$workdir/db2sample.csv" | jq -cS .)
rpartition=$(go run ./cmd/structmine partition -json "$workdir/db2sample.csv" | jq -cS .)
[ -n "$rdedup" ] && [ -n "$rpartition" ] || { echo "smoke: FAIL — empty resident dedup/partition reference"; exit 1; }

# boot LOGFILE [FLAGS...] — start a daemon (default store $workdir/state,
# override with explicit flags); sets $pid and $base.
boot() {
  local log=$1; shift
  [ $# -gt 0 ] || set -- -persist "$workdir/state"
  "$workdir/structmined" -addr 127.0.0.1:0 -workers 2 "$@" >"$log" 2>&1 &
  pid=$!
  disown "$pid" # keep bash from reporting the deliberate SIGKILL below
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^structmined listening on //p' "$log" | head -n1)
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "smoke: FAIL — server did not start" >&2; cat "$log" >&2; exit 1
  fi
  base="http://$addr"
}

boot "$workdir/log"
echo "smoke: server up at $base (persisting to $workdir/state)"

ds=$(curl -sS -X POST --data-binary @"$workdir/db2sample.csv" \
  -H 'Content-Type: text/csv' "$base/v1/datasets?name=db2sample" | jq -r .id)
[ -n "$ds" ] && [ "$ds" != null ] || { echo "smoke: FAIL — dataset registration"; exit 1; }
echo "smoke: registered dataset $ds"

submit() {
  curl -sS -X POST -H 'Content-Type: application/json' \
    -d "{\"dataset\":\"$ds\",\"task\":\"rank-fds\"}" "$base/v1/jobs"
}

# mine TASK [PARAMS] — run TASK (with the JSON object PARAMS, default {})
# on dataset $ds to completion and print its artifact (the "result"
# member, compact with sorted keys).
mine() {
  local j jid jstate
  j=$(curl -sS -X POST -H 'Content-Type: application/json' \
    -d "{\"dataset\":\"$ds\",\"task\":\"$1\",\"params\":${2:-{\}}}" "$base/v1/jobs")
  jid=$(echo "$j" | jq -r .id)
  jstate=$(echo "$j" | jq -r .state)
  for _ in $(seq 1 600); do
    case "$jstate" in done) break ;; failed|canceled)
      echo "smoke: FAIL — $1 job $jid reached state $jstate" >&2; exit 1 ;; esac
    sleep 0.1
    jstate=$(curl -sS "$base/v1/jobs/$jid" | jq -r .state)
  done
  [ "$jstate" = done ] || { echo "smoke: FAIL — $1 job $jid stuck in $jstate" >&2; exit 1; }
  curl -sS "$base/v1/jobs/$jid/result" | jq -cS .result
}

# same_as_resident — the paged daemon's dedup and partition on $ds equal
# the CLI's resident artifacts.
same_as_resident() {
  local t got want
  for t in dedup partition; do
    got=$(mine "$t")
    case "$t" in dedup) want=$rdedup ;; partition) want=$rpartition ;; esac
    [ "$got" = "$want" ] || { echo "smoke: FAIL — paged $t artifact differs from the resident CLI run"; exit 1; }
  done
}

job=$(submit)
id=$(echo "$job" | jq -r .id)
state=$(echo "$job" | jq -r .state)
for _ in $(seq 1 600); do
  case "$state" in done) break ;; failed|canceled)
    echo "smoke: FAIL — job $id reached state $state"; exit 1 ;; esac
  sleep 0.1
  state=$(curl -sS "$base/v1/jobs/$id" | jq -r .state)
done
[ "$state" = done ] || { echo "smoke: FAIL — job $id stuck in $state"; exit 1; }
ranked=$(curl -sS "$base/v1/jobs/$id/result" | jq '.result.ranked | length')
[ "$ranked" -gt 0 ] || { echo "smoke: FAIL — empty rank-fds result"; exit 1; }
echo "smoke: job $id done, $ranked ranked dependencies"

stages=$(curl -sS "$base/v1/jobs/$id/trace" | jq '.trace.stages | length')
[ "$stages" -gt 0 ] || { echo "smoke: FAIL — finished job reports no trace stages"; exit 1; }
echo "smoke: job trace reports $stages pipeline stages"

# A dedup after double clustering builds its own Phase 1 pass: its
# artifact is the resident CLI's, as is the later daemon's, which runs
# nothing before its dedup.
mine group-attrs '{"double":true}' >/dev/null
same_as_resident
echo "smoke: paged dedup and partition match the resident CLI artifacts"

metrics=$(curl -sS "$base/v1/metrics")
for series in structmined_http_requests_total structmined_jobs_queue_depth \
              structmined_cache_hits_total structmine_aib_merges_total \
              structmine_stage_seconds_bucket structmine_store_recovered_datasets \
              structmine_store_append_replays_total \
              structmine_store_journal_appends_total; do
  echo "$metrics" | grep "^$series" >/dev/null \
    || { echo "smoke: FAIL — /v1/metrics is missing $series"; exit 1; }
done
echo "smoke: /v1/metrics exposes the request, job, cache, engine, and store series"

second=$(submit)
hit=$(echo "$second" | jq -r .cache_hit)
state2=$(echo "$second" | jq -r .state)
if [ "$hit" != true ] || [ "$state2" != done ]; then
  echo "smoke: FAIL — repeated query not served from cache (hit=$hit state=$state2)"; exit 1
fi
hits=$(curl -sS "$base/v1/healthz" | jq .cache.hits)
[ "$hits" -ge 1 ] || { echo "smoke: FAIL — healthz reports $hits cache hits"; exit 1; }
echo "smoke: repeated query served from artifact cache (hits=$hits)"

# /v1 is the only surface: the pre-versioning bare paths are plain 404s.
bare=$(curl -sS -o /dev/null -w '%{http_code}' "$base/healthz")
[ "$bare" = 404 ] || { echo "smoke: FAIL — bare /healthz answered $bare, want 404"; exit 1; }
echo "smoke: bare paths are gone; only /v1 answers"

# Errors are machine-readable envelopes.
code=$(curl -sS "$base/v1/datasets/nope" | jq -r .error.code)
[ "$code" = dataset_not_found ] || { echo "smoke: FAIL — error envelope code=$code"; exit 1; }
echo "smoke: error envelope carries machine-readable codes"

# --- crash-recovery phase -------------------------------------------------
echo "smoke: SIGKILL the daemon (no drain) and restart over the same store"
kill -KILL "$pid"
for _ in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
pid=""

boot "$workdir/log2"
echo "smoke: successor up at $base"

# assert_one_format STATEDIR — a booted daemon keeps datasets under
# colstore/ only: nothing may sit in the pre-.col snapshot directory.
assert_one_format() {
  if [ -d "$1/datasets" ] && [ -n "$(find "$1/datasets" -type f)" ]; then
    echo "smoke: FAIL — files under $1/datasets; datasets belong under colstore/ only"; exit 1
  fi
  [ -n "$(find "$1/colstore" -name '*.col' -type f)" ] \
    || { echo "smoke: FAIL — no .col file under $1/colstore"; exit 1; }
}

recovered=$(curl -sS "$base/v1/datasets" | jq -r --arg id "$ds" '[.items[] | select(.id == $id)] | length')
[ "$recovered" = 1 ] || { echo "smoke: FAIL — dataset $ds not recovered after SIGKILL"; exit 1; }
rstorage=$(curl -sS "$base/v1/datasets/$ds" | jq -r .storage)
[ "$rstorage" = paged ] || { echo "smoke: FAIL — dataset $ds came back as storage=$rstorage, want paged"; exit 1; }
assert_one_format "$workdir/state"
echo "smoke: dataset $ds recovered, paged, from its colstore file"

rec=$(curl -sS "$base/v1/jobs/$id")
rstate=$(echo "$rec" | jq -r .state)
rflag=$(echo "$rec" | jq -r .recovered)
if [ "$rstate" != done ] || [ "$rflag" != true ]; then
  echo "smoke: FAIL — pre-crash job $id not recovered (state=$rstate recovered=$rflag)"; exit 1
fi
ranked2=$(curl -sS "$base/v1/jobs/$id/result" | jq '.result.ranked | length')
[ "$ranked2" = "$ranked" ] || { echo "smoke: FAIL — recovered artifact differs ($ranked2 vs $ranked)"; exit 1; }
echo "smoke: pre-crash job $id answers with its original artifact"

third=$(submit)
hit3=$(echo "$third" | jq -r .cache_hit)
state3=$(echo "$third" | jq -r .state)
if [ "$hit3" != true ] || [ "$state3" != done ]; then
  echo "smoke: FAIL — post-crash repeat not a cache hit (hit=$hit3 state=$state3)"; exit 1
fi
echo "smoke: post-crash repeated query served from the durable cache"

recov=$(curl -sS "$base/v1/healthz" | jq .store.recovered_datasets)
[ "$recov" -ge 1 ] || { echo "smoke: FAIL — healthz reports $recov recovered datasets"; exit 1; }
# No grep -q in a pipeline: under pipefail an early -q exit EPIPEs curl
# (exit 23) and fails the check even though the line is present.
curl -sS "$base/v1/metrics" | grep '^structmine_store_recovered_datasets 1' >/dev/null \
  || { echo "smoke: FAIL — store recovery gauge missing from /v1/metrics"; exit 1; }
echo "smoke: recovery counters exposed on /v1/healthz and /v1/metrics"

# --- incremental append phase ---------------------------------------------
# Append rows over POST /v1/datasets/{id}/append: the id must stay
# stable while the hash advances and the epoch bumps, the re-mine must
# be a cache MISS whose artifact matches a fresh registration of the
# concatenated contents, and a SIGKILL inside the append window — the
# durable intent record exists but the new state was never published —
# must replay to exactly one application on restart.
echo "smoke: appending 3 rows to dataset $ds"
before=$(curl -sS "$base/v1/datasets/$ds")
hash0=$(echo "$before" | jq -r .hash)
tuples0=$(echo "$before" | jq .summary.tuples)
head -n1 "$workdir/db2sample.csv" > "$workdir/append.csv"
tail -n3 "$workdir/db2sample.csv" >> "$workdir/append.csv"

after=$(curl -sS -X POST --data-binary @"$workdir/append.csv" \
  -H 'Content-Type: text/csv' "$base/v1/datasets/$ds/append")
aep=$(echo "$after" | jq .epoch)
ahash=$(echo "$after" | jq -r .hash)
atuples=$(echo "$after" | jq .summary.tuples)
if [ "$aep" != 1 ] || [ "$ahash" = "$hash0" ] || [ "$atuples" != $((tuples0 + 3)) ]; then
  echo "smoke: FAIL — append identity (epoch=$aep hash-advanced=$([ "$ahash" != "$hash0" ] && echo yes || echo no) tuples=$atuples, want epoch=1 and $((tuples0 + 3)) tuples)"; exit 1
fi
echo "smoke: append applied (epoch 1, hash advanced, $tuples0 -> $atuples tuples)"

remine=$(submit)
[ "$(echo "$remine" | jq -r .cache_hit)" != true ] \
  || { echo "smoke: FAIL — post-append submit was a cache hit (epoch did not invalidate)"; exit 1; }
rid=$(echo "$remine" | jq -r .id)
rstate=$(echo "$remine" | jq -r .state)
for _ in $(seq 1 600); do
  case "$rstate" in done) break ;; failed|canceled)
    echo "smoke: FAIL — re-mine job $rid reached state $rstate"; exit 1 ;; esac
  sleep 0.1
  rstate=$(curl -sS "$base/v1/jobs/$rid" | jq -r .state)
done
[ "$rstate" = done ] || { echo "smoke: FAIL — re-mine job $rid stuck in $rstate"; exit 1; }
echo "smoke: post-append re-mine was a cache miss and completed"

# The delta re-mine must be indistinguishable from mining the full
# concatenated contents from scratch.
{ cat "$workdir/db2sample.csv"; tail -n +2 "$workdir/append.csv"; } > "$workdir/concat.csv"
fds=$(curl -sS -X POST --data-binary @"$workdir/concat.csv" \
  -H 'Content-Type: text/csv' "$base/v1/datasets?name=db2concat" | jq -r .id)
fjob=$(curl -sS -X POST -H 'Content-Type: application/json' \
  -d "{\"dataset\":\"$fds\",\"task\":\"rank-fds\"}" "$base/v1/jobs")
fid=$(echo "$fjob" | jq -r .id)
fstate=$(echo "$fjob" | jq -r .state)
for _ in $(seq 1 600); do
  case "$fstate" in done) break ;; failed|canceled)
    echo "smoke: FAIL — scratch job $fid reached state $fstate"; exit 1 ;; esac
  sleep 0.1
  fstate=$(curl -sS "$base/v1/jobs/$fid" | jq -r .state)
done
[ "$fstate" = done ] || { echo "smoke: FAIL — scratch job $fid stuck in $fstate"; exit 1; }
delta_art=$(curl -sS "$base/v1/jobs/$rid/result" | jq -cS .result)
fresh_art=$(curl -sS "$base/v1/jobs/$fid/result" | jq -cS .result)
[ "$delta_art" = "$fresh_art" ] \
  || { echo "smoke: FAIL — delta re-mine artifact diverges from a from-scratch run"; exit 1; }
echo "smoke: delta re-mine artifact matches a fresh full mine of the concatenated contents"

ametrics=$(curl -sS "$base/v1/metrics")
echo "$ametrics" | grep '^structmine_append_rows_total 3' >/dev/null \
  || { echo "smoke: FAIL — structmine_append_rows_total missing or wrong"; exit 1; }
echo "$ametrics" | grep '^structmine_append_epochs_total 1' >/dev/null \
  || { echo "smoke: FAIL — structmine_append_epochs_total missing or wrong"; exit 1; }
dcount=$(echo "$ametrics" | sed -n 's/^structmine_append_delta_remine_seconds_count //p')
[ -n "$dcount" ] && [ "$dcount" -ge 1 ] \
  || { echo "smoke: FAIL — structmine_append_delta_remine_seconds observed no delta re-mine (count=$dcount)"; exit 1; }
# The mine before the append had no state to resume: one no_state
# fallback, and the closed set of five reasons is exposed.
[ "$(echo "$ametrics" | grep -c '^structmine_append_delta_fallback_total{reason=')" -eq 5 ] \
  || { echo "smoke: FAIL — structmine_append_delta_fallback_total does not expose its five reasons"; exit 1; }
echo "$ametrics" | grep '^structmine_append_delta_fallback_total{reason="no_state"} [1-9]' >/dev/null \
  || { echo "smoke: FAIL — the first mine counted no no_state fallback"; exit 1; }
echo "smoke: append counters, delta re-mine histogram and fallback reasons exposed on /v1/metrics"

# Crash inside the append window: SIGKILL the daemon, then plant the
# durable intent record exactly as the handler writes it before
# publishing any new state. The restarted daemon's single replay must
# apply it to the paged lineage — rows neither lost nor doubled.
echo "smoke: SIGKILL the daemon and simulate a crash mid-append (intent written, state unpublished)"
kill -KILL "$pid"
for _ in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
pid=""
head -n1 "$workdir/db2sample.csv" > "$workdir/append2.csv"
tail -n2 "$workdir/db2sample.csv" >> "$workdir/append2.csv"
nhash=$({ printf '%s' "$ahash"; cat "$workdir/append2.csv"; } | sha256sum | awk '{print $1}')
nbytes=$(($(echo "$after" | jq .bytes) + $(wc -c < "$workdir/append2.csv")))
jq -n --arg id "$ds" --arg oh "$ahash" --arg nh "$nhash" \
      --argjson ep 2 --argjson by "$nbytes" \
      --arg rows "$(base64 -w0 "$workdir/append2.csv")" \
  '{id: $id, name: "", source: "", old_hash: $oh, new_hash: $nh, epoch: $ep, bytes: $by, rows: $rows}' \
  > "$workdir/state/appends/$nhash.apd"

boot "$workdir/log5"
crashed=$(curl -sS "$base/v1/datasets/$ds")
cep=$(echo "$crashed" | jq .epoch)
chash=$(echo "$crashed" | jq -r .hash)
ctuples=$(echo "$crashed" | jq .summary.tuples)
cstorage=$(echo "$crashed" | jq -r .storage)
if [ "$cep" != 2 ] || [ "$chash" != "$nhash" ] || [ "$ctuples" != $((atuples + 2)) ] || [ "$cstorage" != paged ]; then
  echo "smoke: FAIL — crashed append not replayed exactly once on the paged lineage (epoch=$cep tuples=$ctuples storage=$cstorage, want epoch=2, $((atuples + 2)) tuples, paged)"; exit 1
fi
assert_one_format "$workdir/state"
[ -z "$(ls "$workdir/state/appends")" ] \
  || { echo "smoke: FAIL — append intent not retired after its replay"; exit 1; }
curl -sS "$base/v1/metrics" | grep '^structmine_store_append_replays_total 1' >/dev/null \
  || { echo "smoke: FAIL — append replay counter missing from /v1/metrics"; exit 1; }
echo "smoke: mid-append crash replayed to exactly one application ($atuples -> $ctuples tuples)"

kill -TERM "$pid"
for _ in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$pid" 2>/dev/null; then
  echo "smoke: FAIL — server did not drain on SIGTERM"; exit 1
fi
pid=""
echo "smoke: graceful shutdown ok"

# --- fresh paged daemon phase ---------------------------------------------
# A second daemon over an empty store must admit the sample as a paged
# (out-of-core) dataset, mine it from the colstore file, survive a
# SIGKILL, and re-adopt the dataset at boot. It is passed
# -resident-bytes, which must still parse (and is ignored).
echo "smoke: booting a fresh paged daemon (with the ignored -resident-bytes 1024)"
boot "$workdir/log3" -persist "$workdir/state2" -resident-bytes 1024

reg=$(curl -sS -X POST --data-binary @"$workdir/db2sample.csv" \
  -H 'Content-Type: text/csv' "$base/v1/datasets?name=db2paged")
ds=$(echo "$reg" | jq -r .id)
storage=$(echo "$reg" | jq -r .storage)
[ "$storage" = paged ] || { echo "smoke: FAIL — dataset admitted as $storage, want paged"; exit 1; }
echo "smoke: dataset $ds admitted out of core (storage=paged)"

job=$(submit)
id=$(echo "$job" | jq -r .id)
state=$(echo "$job" | jq -r .state)
for _ in $(seq 1 600); do
  case "$state" in done) break ;; failed|canceled)
    echo "smoke: FAIL — paged job $id reached state $state"; exit 1 ;; esac
  sleep 0.1
  state=$(curl -sS "$base/v1/jobs/$id" | jq -r .state)
done
[ "$state" = done ] || { echo "smoke: FAIL — paged job $id stuck in $state"; exit 1; }
pranked=$(curl -sS "$base/v1/jobs/$id/result" | jq '.result.ranked | length')
[ "$pranked" = "$ranked" ] || { echo "smoke: FAIL — rank-fds found $pranked dependencies, the first daemon found $ranked"; exit 1; }
echo "smoke: rank-fds job $id done, matches the first daemon's run ($pranked dependencies)"

same_as_resident
echo "smoke: fresh daemon's dedup and partition match the resident CLI artifacts"

curl -sS "$base/v1/metrics" | grep '^structmine_colstore_pages_read_total' >/dev/null \
  || { echo "smoke: FAIL — colstore page-read counter missing from /v1/metrics"; exit 1; }
echo "smoke: colstore series exposed on /v1/metrics"

# --- primitive cache assertions -------------------------------------------
# A job of another task over the same (hash, epoch) misses the artifact
# cache (the task is part of its key) but must serve its single-attribute
# partitions from the primitive cache the rank-fds job's TANE run filled.
# approx-fds is the probe because it keeps no mine-state: a second
# rank-fds would resume the minimal FD set the first one left and
# never ask for a partition. After an append bumps the epoch, the cache
# must NOT serve the stale entries: the probe recomputes, so misses
# increase.
pmetric() {
  curl -sS "$base/v1/metrics" | awk -v n="$1" '$1 == n { print $2; f = 1 } END { if (!f) print 0 }'
}
phits0=$(pmetric structmine_primcache_hits_total)
mine approx-fds >/dev/null
phits1=$(pmetric structmine_primcache_hits_total)
if [ "$phits1" -le "$phits0" ]; then
  echo "smoke: FAIL — second (hash, epoch) job did not hit the primitive cache (hits $phits0 -> $phits1)"; exit 1
fi
echo "smoke: primitive cache hit on the second job (hits $phits0 -> $phits1)"

# Append errors are tier-independent: the paged tier answers a shape mismatch with the text golden/err_append_shape.json pins on both tiers.
curl -sS -X POST --data-binary $'A,B\n1,2\n' -H 'Content-Type: text/csv' "$base/v1/datasets/$ds/append" | jq -e '.error.code == "shape_mismatch" and (.error.message | test(": body has 2 attributes, dataset has [0-9]+$"))' >/dev/null || { echo "smoke: FAIL — shape-mismatched append to a paged dataset does not answer with the resident tier's error"; exit 1; }
pmiss0=$(pmetric structmine_primcache_misses_total)
head -n1 "$workdir/db2sample.csv" > "$workdir/pappend.csv"
tail -n3 "$workdir/db2sample.csv" >> "$workdir/pappend.csv"
pafter=$(curl -sS -X POST --data-binary @"$workdir/pappend.csv" \
  -H 'Content-Type: text/csv' "$base/v1/datasets/$ds/append")
pep=$(echo "$pafter" | jq -r .epoch)
[ "$pep" = 1 ] || { echo "smoke: FAIL — paged append did not bump the epoch (epoch=$pep)"; exit 1; }
mine approx-fds >/dev/null
pmiss1=$(pmetric structmine_primcache_misses_total)
if [ "$pmiss1" -le "$pmiss0" ]; then
  echo "smoke: FAIL — epoch bump did not invalidate the primitive cache (misses $pmiss0 -> $pmiss1)"; exit 1
fi
echo "smoke: epoch bump invalidated the primitive cache (misses $pmiss0 -> $pmiss1)"

# The post-append rank-fds resumes the FD state the first one left:
# delta re-mining engages on a paged dataset too.
pdelta0=$(pmetric structmine_append_delta_remine_seconds_count)
mine rank-fds >/dev/null
pdelta1=$(pmetric structmine_append_delta_remine_seconds_count)
[ "$pdelta1" -gt "$pdelta0" ] \
  || { echo "smoke: FAIL — post-append paged rank-fds took no delta path (count $pdelta0 -> $pdelta1)"; exit 1; }
echo "smoke: post-append paged rank-fds re-mined through the delta path"

echo "smoke: SIGKILL the fresh daemon and restart over the same store"
kill -KILL "$pid"
for _ in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
pid=""
boot "$workdir/log4" -persist "$workdir/state2" -resident-bytes 1024

pstorage=$(curl -sS "$base/v1/datasets/$ds" | jq -r .storage)
[ "$pstorage" = paged ] || { echo "smoke: FAIL — paged dataset not re-adopted after SIGKILL (storage=$pstorage)"; exit 1; }
assert_one_format "$workdir/state2"
echo "smoke: paged dataset $ds re-adopted from its colstore file"

pagain=$(submit)
phit=$(echo "$pagain" | jq -r .cache_hit)
pstate=$(echo "$pagain" | jq -r .state)
if [ "$phit" != true ] || [ "$pstate" != done ]; then
  echo "smoke: FAIL — post-crash paged repeat not a cache hit (hit=$phit state=$pstate)"; exit 1
fi
echo "smoke: post-crash paged query served from the durable cache"

kill -TERM "$pid"
for _ in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$pid" 2>/dev/null; then
  echo "smoke: FAIL — second server did not drain on SIGTERM"; exit 1
fi
pid=""

echo "smoke: PASS"
status=0
