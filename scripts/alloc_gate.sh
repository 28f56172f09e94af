#!/usr/bin/env bash
# Benchmark allocation gate for the ingest hot path.
#
# Runs BenchmarkHubBatchIngest/plain with -benchmem and fails if its
# allocs/op exceeds the checked-in baseline
# (scripts/hub_allocs_baseline.txt) by more than the tolerance.
# Allocation counts, unlike wall-clock throughput, are nearly
# deterministic per op, so a single -benchtime=1x run is a meaningful
# regression signal even on noisy CI hosts.
set -euo pipefail
cd "$(dirname "$0")/.."

tolerance_pct=10
baseline=$(grep -v '^#' scripts/hub_allocs_baseline.txt | head -1 | tr -d '[:space:]')
if ! [[ "$baseline" =~ ^[0-9]+$ ]]; then
  echo "alloc gate: bad baseline '$baseline' in scripts/hub_allocs_baseline.txt" >&2
  exit 1
fi

out=$(go test -bench 'BenchmarkHubBatchIngest/plain$' -benchtime=1x -benchmem -run '^$' .)
echo "$out"
allocs=$(echo "$out" | awk '/^BenchmarkHubBatchIngest/ {
  for (i = 1; i <= NF; i++) if ($i == "allocs/op") print $(i-1)
}' | head -1)
if ! [[ "${allocs:-}" =~ ^[0-9]+$ ]]; then
  echo "alloc gate: could not parse allocs/op from benchmark output" >&2
  exit 1
fi

limit=$((baseline + baseline * tolerance_pct / 100))
echo "alloc gate: measured ${allocs} allocs/op, baseline ${baseline}, limit ${limit} (+${tolerance_pct}%)"
if ((allocs > limit)); then
  echo "alloc gate: FAIL — BenchmarkHubBatchIngest/plain allocates ${allocs} objects/op," >&2
  echo "more than ${tolerance_pct}% over the checked-in baseline ${baseline}." >&2
  echo "If the regression is intentional, update scripts/hub_allocs_baseline.txt." >&2
  exit 1
fi
echo "alloc gate: PASS"
