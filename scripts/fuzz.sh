#!/usr/bin/env bash
# The fuzz leg: each native fuzz target mutates for FUZZTIME, starting
# from its committed seeds (testdata/fuzz/, which plain `go test` already
# replays as unit tests) — the one CSV parser behind registrations and
# append bodies on both storage tiers, its in-place split of a body with
# no quote and no carriage return against encoding/csv's parse of the
# same bytes (same relation or same error text, under any limits), the
# .col file reader, an append's spliced .col file against a fresh write
# of the same rows, the codec
# of what jobs leave each other in the artifact cache (the FD state
# delta re-mining resumes), the store's boot recovery over append intents,
# artifact envelopes and the job journal, the job-submit parameters'
# normalization, the attribute-set group-by (fd.GroupBy and the
# Holds, g3 and MVD checks on it) against a recount of the rows, and
# LIMBO's Phase 1 at τ = 0 (the hash pass over identical conditionals)
# against a rendered-key grouping and NewDCF + AbsorbObj, partition's
# leaf-bounded tree on integer counts against the float tree in lockstep
# (every choice but a tie, s₀·δI on counts = δI on floats, Validate and
# the partition's cover), the AIB
# engine over repeated and proportional objects (budget 1 ≡ budget 4,
# greedy on equation (3), exactly 0 between duplicates), and the
# approximate-FD miner against a brute-force enumeration of the minimal
# g3 ≤ ε dependencies (any ε, NaN and negatives included), the partition
# product and g3 walk over fuzzed class layouts (runs of shared
# a-classes, Π_a singletons, a-classes out of order) against the serial
# product and a recount, TANE over narrow relations with small domains
# (nodes on atoms and on tuples, worker budgets 1 and 4) against the
# serial reference and a brute-force enumeration, and the job
# views, list pages and /result envelopes the daemon assembles from
# stored bytes against writeJSON. One target per invocation is a
# `go test` rule.
# -fuzzminimizetime is capped
# because the default spends up to 60 s shrinking every new corpus entry,
# which starves a short leg: FuzzAppendCSV ran 8 254 inputs in 40 s with
# the default and 626 696 in 30 s with the cap.
#
# Every target runs even when an earlier one fails; the script exits 1 at
# the end and names each failing target. A failing input the fuzzer
# writes under internal/*/testdata/fuzz/ is moved to the git-ignored
# fuzz-failures/ (same package path, testdata/fuzz/ dropped), so a later
# `git add -A` cannot commit a seed that fails plain `go test`, and the
# command that replays it is printed.
#
# usage: scripts/fuzz.sh [FUZZTIME]   default 10s (CI); check.sh passes 3s
set -euo pipefail
cd "$(dirname "$0")/.."
fuzztime=${1:-10s}

# untracked lists the inputs under a fuzz target's testdata/fuzz/ that
# git does not track.
untracked() { git ls-files --others --exclude-standard -- "$1" 2>/dev/null || true; }

failed=()
for target in internal/relation:FuzzReadCSV internal/relation:FuzzAppendCSV internal/relation:FuzzParseCSV \
  internal/colstore:FuzzOpen \
  internal/colstore:FuzzAppend internal/fd:FuzzDecodeState \
  internal/store:FuzzRecover internal/task:FuzzParams internal/fd:FuzzGroupBy internal/limbo:FuzzGroupZero \
  internal/limbo:FuzzCountTree \
  internal/ib:FuzzAgglomerate internal/fd:FuzzMineApprox internal/fd:FuzzRefine internal/fd:FuzzTANE internal/server:FuzzJobViewBytes; do
  pkg=${target%:*} name=${target#*:}
  corpus=$pkg/testdata/fuzz/$name
  before=$(untracked "$corpus")
  if ! go test -run '^$' -fuzz "^$name\$" -fuzztime "$fuzztime" -fuzzminimizetime 10x "./$pkg"; then
    failed+=("$target")
  fi
  while read -r input; do
    [ -n "$input" ] && ! grep -qxF "$input" <<<"$before" || continue
    kept=fuzz-failures/$pkg/$name/${input##*/}
    mkdir -p "${kept%/*}"
    mv "$input" "$kept"
    echo "fuzz: $target input moved to $kept; re-run it with:"
    echo "  mkdir -p $corpus && cp $kept $corpus/ && go test -run '^$name/${input##*/}\$' ./$pkg"
  done <<<"$(untracked "$corpus")"
done
if [ ${#failed[@]} -gt 0 ]; then
  echo "fuzz: ${#failed[@]} failing target(s): ${failed[*]}" >&2
  exit 1
fi
