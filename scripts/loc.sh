#!/usr/bin/env bash
# Non-test Go lines per internal/* package (sub-packages included), their
# total — the number ROADMAP's "net-negative line counts" is judged by,
# so a reviewer reads it off CI instead of recounting — and the control
# plane's subtotal (server + store + primcache), the number ROADMAP item
# 4 is gated on — then the front ends' row: the commands under cmd/ plus
# the root package (the facade). Lines are raw `wc -l` lines of every .go
# file that is not a _test.go file.
#
# usage: scripts/loc.sh [ROOT]   ROOT defaults to this repository; pass
#                                another checkout to count a parent commit.
set -euo pipefail
root=${1:-$(dirname "$0")/..}
cd "$root"

total=0
control=0
for dir in internal/*/; do
  pkg=${dir%/}
  n=$(find "$pkg" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
  printf '%-24s %6d\n' "$pkg" "$n"
  total=$((total + n))
  case $pkg in internal/server | internal/store | internal/primcache) control=$((control + n)) ;; esac
done
printf '%-24s %6d\n' "internal (total)" "$total"
printf '%-24s %6d\n' "server+store+primcache" "$control"
front=$(find cmd ./*.go -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
printf '%-24s %6d\n' "cmd + root package" "$front"
