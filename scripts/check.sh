#!/usr/bin/env bash
# Static checks plus the full test suite under the race detector — the
# gate for the concurrent AIB / LIMBO / TANE code paths, and where both
# legs of the differential table (task.TestDifferentialFDs,
# task.TestDifferentialClustering) run at one worker and at four. The focused
# -count=2 leg re-runs the execution engine and fan-out suites so the
# sync.Pool arena recycling sees reuse (a pool only hands back reset
# arenas on the second pass) with the race detector watching; the
# -count=10 leg repeats the rebalance and budget-sweep tests, which only
# bite when a grant is rebalanced between a fan-out's sizing and its
# loop. The EXPERIMENTS.md drift gate and the ten-seed shape-check sweep
# skip under -race, so they run in a plain leg of their own. The fuzz
# targets then mutate for 3 s each (CI gives them 10 s).
set -euo pipefail
cd "$(dirname "$0")/.."

go vet ./...
go test -race ./...
go test -race -count=2 ./internal/exec
go test -race -count=10 -run 'Rebalance|Budget' ./internal/fd ./internal/relation ./internal/values ./internal/exec
go test -count=1 -run 'TestDocumentCurrent|TestShapeChecksAcrossSeeds' ./cmd/experiments
scripts/fuzz.sh 3s
scripts/smoke.sh
