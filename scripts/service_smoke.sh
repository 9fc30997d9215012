#!/usr/bin/env bash
# service_smoke.sh — end-to-end smoke test of the simd daemon.
#
# Builds simd (race detector + simdebug runtime invariants), starts it on a
# private port, then drives the request matrix the service layer exists for:
#   1. a cold request (cache miss, real simulation)
#   2. the identical request again (memory-tier hit, byte-identical body)
#   3. two concurrent identical requests on a fresh key (singleflight:
#      exactly one additional simulation)
#   4. an invalid request (typed 400, no simulation)
#   5. a client-cancelled request (sim starts, client disconnects)
#   6. a sensitivity plan (POST /v1/sensitivity): fan-out to a ranked
#      report, an identical re-post served whole from the report cache, and
#      a recompute re-post satisfied >=95% from the per-cell tier
# and asserts the /metrics counters account for exactly what happened.
# Finishes with a SIGTERM and requires a clean drain.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:${SIMD_SMOKE_PORT:-18561}"
WORK="$(mktemp -d)"
trap 'kill "$SIMD_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

echo "== build (race + simdebug)"
go build -race -tags simdebug -o "$WORK/simd" ./cmd/simd

"$WORK/simd" -addr "$ADDR" -cache "$WORK/cache" >"$WORK/simd.log" 2>&1 &
SIMD_PID=$!

for _ in $(seq 1 50); do
  curl -fsS -o /dev/null "http://$ADDR/healthz" 2>/dev/null && break
  kill -0 "$SIMD_PID" 2>/dev/null || { echo "simd died at startup"; cat "$WORK/simd.log"; exit 1; }
  sleep 0.2
done
curl -fsS "http://$ADDR/healthz" >/dev/null

BODY='{"machine":"BDW","workload":{"profile":"mcf","uops":30000},"stacks":["cpi","flops"]}'

metric() {
  curl -fsS "http://$ADDR/metrics" | awk -v m="$1" '$1 == m {print $2}'
}

expect_metric() {
  local name="$1" want="$2" got
  got="$(metric "$name")"
  if [ "${got:-0}" != "$want" ]; then
    echo "FAIL: $name = ${got:-<absent>}, want $want"
    curl -fsS "http://$ADDR/metrics" | grep -v '^#' | grep simd_ || true
    exit 1
  fi
}

echo "== cold request (miss)"
curl -fsS -X POST "http://$ADDR/v1/simulate" -d "$BODY" -D "$WORK/h1" -o "$WORK/r1"
grep -qi '^X-Cache: miss' "$WORK/h1" || { echo "FAIL: first request was not a miss"; exit 1; }

echo "== identical request (hit, byte-identical)"
curl -fsS -X POST "http://$ADDR/v1/simulate" -d "$BODY" -D "$WORK/h2" -o "$WORK/r2"
grep -qi '^X-Cache: hit' "$WORK/h2" || { echo "FAIL: second request was not a hit"; exit 1; }
cmp -s "$WORK/r1" "$WORK/r2" || { echo "FAIL: hit body differs from miss body"; exit 1; }
expect_metric simd_sims_total 1
expect_metric 'simd_cache_hits_total{tier="mem"}' 1

echo "== concurrent duplicates (singleflight)"
DUP='{"machine":"BDW","workload":{"profile":"mcf","uops":30001}}'
curl -fsS -X POST "http://$ADDR/v1/simulate" -d "$DUP" -o "$WORK/d1" &
P1=$!
curl -fsS -X POST "http://$ADDR/v1/simulate" -d "$DUP" -o "$WORK/d2" &
P2=$!
wait "$P1" "$P2"
cmp -s "$WORK/d1" "$WORK/d2" || { echo "FAIL: duplicate responses differ"; exit 1; }
SIMS="$(metric simd_sims_total)"
if [ "$SIMS" != 2 ]; then
  echo "FAIL: simd_sims_total = $SIMS after duplicate pair, want 2 (singleflight broken)"
  exit 1
fi

echo "== invalid request (typed 400)"
CODE="$(curl -s -o "$WORK/err" -w '%{http_code}' -X POST "http://$ADDR/v1/simulate" \
  -d '{"machine":"BDW","workload":{"profile":"mcf","uops":10},"scheme":"psychic"}')"
[ "$CODE" = 400 ] || { echo "FAIL: invalid request got $CODE, want 400"; exit 1; }
grep -q 'psychic' "$WORK/err" || { echo "FAIL: 400 body does not name the bad value"; exit 1; }
expect_metric 'simd_requests_total{code="400"}' 1

echo "== cancelled request"
# A large fresh simulation, aborted client-side after 0.3s: the server must
# record one cancelled request (and survive).
curl -s -m 0.3 -X POST "http://$ADDR/v1/simulate" \
  -d '{"machine":"KNL","workload":{"profile":"mcf","uops":500000000}}' >/dev/null || true
for _ in $(seq 1 50); do
  [ "$(metric simd_canceled_total)" = 1 ] && break
  sleep 0.2
done
expect_metric simd_canceled_total 1
curl -fsS "http://$ADDR/healthz" >/dev/null

echo "== sensitivity: plan fan-out, ranked report"
SBODY='{"machine":"BDW","workload":{"profile":"mcf","uops":8000},"params":["bpred"],"variants":[0.5,2]}'
curl -fsS -X POST "http://$ADDR/v1/sensitivity" -d "$SBODY" -D "$WORK/sh1" -o "$WORK/s1"
grep -qi '^X-Cache: miss' "$WORK/sh1" || { echo "FAIL: first plan was not a miss"; exit 1; }
grep -q '"version":"sensitivity-report-v1"' "$WORK/s1" || { echo "FAIL: no versioned report"; exit 1; }
grep -q '"component":"Bpred"' "$WORK/s1" || { echo "FAIL: report lacks the Bpred bound cross-check"; exit 1; }

echo "== sensitivity: identical re-post (report cache hit, byte-identical)"
curl -fsS -X POST "http://$ADDR/v1/sensitivity" -d "$SBODY" -D "$WORK/sh2" -o "$WORK/s2"
grep -qi '^X-Cache: hit' "$WORK/sh2" || { echo "FAIL: plan re-post was not a report-cache hit"; exit 1; }
cmp -s "$WORK/s1" "$WORK/s2" || { echo "FAIL: report-cache hit body differs"; exit 1; }

echo "== sensitivity: recompute re-post (>=95% cells from the cell cache)"
RBODY='{"machine":"BDW","workload":{"profile":"mcf","uops":8000},"params":["bpred"],"variants":[0.5,2],"recompute":true}'
curl -fsS -X POST "http://$ADDR/v1/sensitivity" -d "$RBODY" -D "$WORK/sh3" -o "$WORK/s3"
grep -qi '^X-Cache: miss' "$WORK/sh3" || { echo "FAIL: recompute did not bypass the report cache"; exit 1; }
read -r SCELLS SSIM SCACHE <<<"$(sed -n 's/.*"summary":{"cells":\([0-9]*\),"simulated":\([0-9]*\),"from_cache":\([0-9]*\).*/\1 \2 \3/p' "$WORK/s3")"
[ -n "${SCELLS:-}" ] || { echo "FAIL: recompute report has no summary"; cat "$WORK/s3"; exit 1; }
if [ $(( SCACHE * 100 )) -lt $(( 95 * SCELLS )) ]; then
  echo "FAIL: recompute served $SCACHE of $SCELLS cells from cache, want >= 95%"
  exit 1
fi
expect_metric 'simd_sensitivity_plans_total{event="completed"}' 2
expect_metric 'simd_sensitivity_plans_total{event="report_cache_hit"}' 1
curl -fsS "http://$ADDR/healthz" >/dev/null

echo "== graceful drain"
kill -TERM "$SIMD_PID"
for _ in $(seq 1 100); do
  kill -0 "$SIMD_PID" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$SIMD_PID" 2>/dev/null; then
  echo "FAIL: simd did not exit after SIGTERM"
  exit 1
fi
grep -q 'drained' "$WORK/simd.log" || { echo "FAIL: no drain log line"; cat "$WORK/simd.log"; exit 1; }

echo "service smoke: OK"
