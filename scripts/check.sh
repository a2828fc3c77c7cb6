#!/usr/bin/env bash
# CI's first build gate (any file gofmt would rewrite fails), static
# checks, the darwin and windows cross-builds, plus the full test suite
# under the race detector — the gate for the concurrent AIB / LIMBO /
# TANE code paths, and where both legs of the differential table
# (task.TestDifferentialFDs, task.TestDifferentialClustering) run at one
# worker and at four. The focused
# -count=2 legs re-run the execution engine suite with the race detector
# watching (heap slabs, poisoned on reuse) and the arena-using packages
# without it (off-heap slabs), so the pool hands back reset arenas on
# the second pass; the -count=10 leg repeats the rebalance and
# budget-sweep tests, which only bite when a grant is rebalanced between
# a fan-out's sizing and its loop. The colstore_readat leg runs the
# packages that open .col files over the pread fallback mapping. The
# EXPERIMENTS.md drift gate and the ten-seed shape-check sweep skip
# under -race, so they run in a plain leg of their own. The fuzz targets then mutate for 3 s each (CI gives them
# 10 s).
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(gofmt -l .)
if [ -n "$out" ]; then
  echo "gofmt needs to be run on:"
  echo "$out"
  exit 1
fi
go vet ./...
# CI's cross-builds: the colstore mapping and the arena slabs are per-OS
# files, and benchmark/ needs Setpgid and syscall.Kill, which Windows
# lacks.
GOOS=darwin go build ./...
GOOS=windows go build ./internal/... ./cmd/... .
go test -race ./...
go test -race -count=2 ./internal/exec
go test -count=2 ./internal/exec ./internal/fd ./internal/limbo ./internal/task ./internal/server
go test -race -count=10 -run 'Rebalance|Budget' ./internal/fd ./internal/relation ./internal/values ./internal/exec
go test -tags colstore_readat ./internal/colstore ./internal/server ./internal/task
go test -count=1 -run 'TestDocumentCurrent|TestShapeChecksAcrossSeeds' ./cmd/experiments
scripts/fuzz.sh 3s
scripts/smoke.sh
