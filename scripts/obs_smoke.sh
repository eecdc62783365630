#!/bin/sh
# obs_smoke.sh — observability end-to-end check (CI's "Observability smoke"
# step; run locally via `make obs-smoke`).
#
# Starts a real `microrec serve` with per-request tracing and pprof enabled,
# drives live traffic at it with `microrec smoke` (which validates the
# /metrics Prometheus exposition and the /trace trace-event JSON), then curls
# the telemetry endpoints directly so a transport-level regression (content
# type, status code, pprof mounting) also fails the build.
set -eu

PORT="${PORT:-18080}"
ADDR="http://127.0.0.1:$PORT"
GO="${GO:-go}"
BIN="${TMPDIR:-/tmp}/microrec-obs-smoke"

"$GO" build -o "$BIN" ./cmd/microrec

"$BIN" serve -addr "127.0.0.1:$PORT" -batch 8 -sla 1s -trace-sample 1 -pprof &
SERVER=$!
trap 'kill "$SERVER" 2>/dev/null || true' EXIT

# Drive traffic and validate both telemetry endpoints (waits for /healthz).
"$BIN" smoke -addr "$ADDR" -n 64

# Transport-level checks: status codes, content type, pprof gate.
curl -fsS "$ADDR/metrics" -o /tmp/obs-smoke-metrics.txt \
    -w '%{content_type}\n' | grep -q '^text/plain; version=0.0.4'
grep -q '^microrec_build_info{' /tmp/obs-smoke-metrics.txt
curl -fsS "$ADDR/trace?last=16" -o /tmp/obs-smoke-trace.json
head -c 1 /tmp/obs-smoke-trace.json | grep -q '\['
curl -fsS "$ADDR/debug/pprof/cmdline" >/dev/null

echo "obs smoke ok: /metrics, /trace and /debug/pprof/ all answer on $ADDR"
