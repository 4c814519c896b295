#!/usr/bin/env bash
# Fleet smoke test: run a small d2fleet storm twice — once on 1 worker
# domain, once on 4 — and require byte-identical reports (jobs must
# never affect results), a simulated-throughput floor, and a sane
# hit-rate curve in the output.  Then the same -j 1 vs -j 4 diff for a
# 20k-client flash crowd and a churning diurnal day.  The storm's full
# report (curve + per-owner load histogram) is saved to $FLEET_CURVE so
# CI can upload it as an artifact.
set -euo pipefail

cd "$(dirname "$0")/.."

CLIENTS="${FLEET_CLIENTS:-100000}"
DURATION="${FLEET_DURATION:-10}"
SCENARIO="${FLEET_SCENARIO:-zipf_storm}"
CURVE="${FLEET_CURVE:-/tmp/d2_fleet_curve.txt}"
# Conservative floor: a quiet single core steps the 1M-client storm at
# ~7M simulated ops/s; 500k only catches order-of-magnitude
# regressions (per-op allocation, a return to one-probe-per-wake)
# without flaking on a busy shared CI runner.
MIN_OPS_S="${FLEET_MIN_OPS_S:-500000}"

dune build bin/d2fleet.exe
FLEET=./_build/default/bin/d2fleet.exe

# Determinism: the report must not depend on the worker-domain count.
"$FLEET" -s "$SCENARIO" -n "$CLIENTS" -d "$DURATION" -j 1 \
  >/tmp/d2_fleet_j1.txt 2>/dev/null
"$FLEET" -s "$SCENARIO" -n "$CLIENTS" -d "$DURATION" -j 4 \
  --min-ops-s "$MIN_OPS_S" >/tmp/d2_fleet_j4.txt
if ! diff -u /tmp/d2_fleet_j1.txt /tmp/d2_fleet_j4.txt; then
  echo "fleet_smoke: report differs between -j 1 and -j 4" >&2
  exit 1
fi
cp /tmp/d2_fleet_j4.txt "$CURVE"

# The other scenarios schedule closures on the engine (the flash
# crowd's onset, diurnal churn) beside the posted client wakes, so
# they must be job-invariant too.  Small runs: under a second each.
for args in "flash_crowd --flash-at 4" "diurnal --churn-per-day 2000"; do
  # shellcheck disable=SC2086
  "$FLEET" -s $args -n 20000 -d 10 -j 1 >/tmp/d2_fleet_s1.txt 2>/dev/null
  # shellcheck disable=SC2086
  "$FLEET" -s $args -n 20000 -d 10 -j 4 >/tmp/d2_fleet_s4.txt 2>/dev/null
  if ! diff -u /tmp/d2_fleet_s1.txt /tmp/d2_fleet_s4.txt; then
    echo "fleet_smoke: $args report differs between -j 1 and -j 4" >&2
    exit 1
  fi
done

# The report must carry the hit-rate sweep and the load histogram.
grep -q "hit-rate vs cache size" "$CURVE"
grep -q "owner load" "$CURVE"

echo "fleet_smoke: OK"
