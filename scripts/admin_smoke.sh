#!/usr/bin/env bash
# Admin-plane smoke: start simbad -hub with the ops plane enabled,
# verify /healthz reports every shard running under one check each and
# /shards carries each shard's peaks, trigger a rolling
# rejuvenation over HTTP while the workload is still lingering, verify
# the generation bump with no restart, and assert the process then
# drains cleanly (exit 0, zero lost, zero duplicated).
set -euo pipefail
cd "$(dirname "$0")/.."

addr=127.0.0.1:18025
log=$(mktemp)
trap 'kill "$pid" 2>/dev/null || true; rm -f "$log"' EXIT

go run ./cmd/simbad -hub -users 100 -shards 4 -alerts 5000 \
  -admin "$addr" -probe-period 100ms -linger 6s >"$log" 2>&1 &
pid=$!

# Wait for the admin plane to come up.
for i in $(seq 1 50); do
  if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "admin smoke: simbad exited before the admin plane came up" >&2
    cat "$log" >&2
    exit 1
  fi
  sleep 0.2
done

healthz=$(curl -sf "http://$addr/healthz")
echo "$healthz"
running=$(echo "$healthz" | grep -c '"state": "running"')
if [ "$running" -ne 4 ]; then
  echo "admin smoke: expected 4 running shards, saw $running" >&2
  exit 1
fi
# One supervision check per shard, and one snapshot per shard that
# carries the peaks.
checks=$(echo "$healthz" | grep -c '"name": "shard-' || true)
if [ "$checks" -ne 4 ]; then
  echo "admin smoke: expected one shard-N check per shard (4), saw $checks" >&2
  exit 1
fi
peaks=$(curl -sf "http://$addr/shards" | grep -c '"peak_depth"' || true)
if [ "$peaks" -ne 4 ]; then
  echo "admin smoke: expected peak_depth on 4 /shards rows, saw $peaks" >&2
  exit 1
fi

# Trigger a rolling rejuvenation and check every shard's generation
# advanced past 1.
rejuv=$(curl -sf -X POST "http://$addr/rejuvenate")
echo "$rejuv"
if echo "$rejuv" | grep -q '"generation": 1,'; then
  echo "admin smoke: a shard's generation did not advance after /rejuvenate" >&2
  exit 1
fi
if [ "$(echo "$rejuv" | grep -c '"rejuvenations": 0')" -ne 0 ]; then
  echo "admin smoke: a shard reported zero rejuvenations after /rejuvenate" >&2
  exit 1
fi
# Rejuvenation renews a shard in place and never escalates to a
# restart, so every shard still reports zero restarts.
unrestarted=$(echo "$rejuv" | grep -c '"restarts": 0' || true)
if [ "$unrestarted" -ne 4 ]; then
  echo "admin smoke: expected \"restarts\": 0 on all 4 shards after /rejuvenate, saw it on $unrestarted" >&2
  exit 1
fi

# Tenant CRUD round-trip.
curl -sf -X POST "http://$addr/users" -d '{"user":"smoke-tenant"}' >/dev/null
curl -sf "http://$addr/users" | grep -q smoke-tenant
curl -sf -X DELETE "http://$addr/users/smoke-tenant" >/dev/null

# The run must still drain cleanly after the remote-triggered
# rejuvenation: exit 0 and a report with zero lost/duplicated alerts.
wait "$pid"
cat "$log"
grep -qE 'best-effort +[0-9]+ +0 +0' "$log" || {
  echo "admin smoke: best-effort tier reported losses or duplicates" >&2
  exit 1
}
grep -q 'duplicates 0' "$log" || {
  echo "admin smoke: report shows duplicates" >&2
  exit 1
}
echo "admin smoke: OK"
