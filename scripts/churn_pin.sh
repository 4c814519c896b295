#!/usr/bin/env bash
# The mem_churn pin: run `perfbench/run.sh --workload mem_churn --seed 7
# --seconds 3 --trace 0` on the working tree and diff its report, with
# the timing fields removed (the setup times, setup_s, ops_s and rss_mb
# lines, and those three keys of the JSON line), against the committed
# bench/churn_seed7.txt.  Everything else runs on the virtual clock and
# must match byte for byte; exits non-zero on any difference.  The
# tree's report is left in /tmp/d2_churn_seed7.out: a change that moves
# the report on purpose copies it over bench/churn_seed7.txt and says
# why.
#
#   scripts/churn_pin.sh      or      make churn-pin
set -euo pipefail

cd "$(dirname "$0")/.."

out=/tmp/d2_churn_seed7.out

# run.sh exits non-zero when the workload's own audit fails (the churn
# world's replica audit does today); the report is what is pinned.
(sh perfbench/run.sh --workload mem_churn --seed 7 --seconds 3 --trace 0 \
  2>/dev/null || true) |
  grep -v -E '^  (setup times:|setup_s |ops_s |rss_mb )' |
  sed -E 's/"(setup_s|ops_s|rss_mb)": \{[^}]*\}(, )?//g; s/, \}/}/g' > "$out"
if diff -u bench/churn_seed7.txt "$out"; then
  echo "churn-pin OK"
else
  echo "churn-pin: the mem_churn report differs from bench/churn_seed7.txt" >&2
  exit 1
fi
