#!/usr/bin/env bash
# The mem_churn pin: run `perfbench/run.sh --workload mem_churn --seed 7
# --seconds 3 --trace 0` on REF (default HEAD, exported with
# `git archive` into a temporary directory) and on the working tree,
# then diff the two reports with the timing fields removed (the setup
# times, setup_s, ops_s and rss_mb lines, and those three keys of the
# JSON line).  Everything else runs on the virtual clock and must be
# identical; exits non-zero on any difference.  Writes nothing inside
# the checkout except _build.
#
#   scripts/churn_pin.sh [REF]      or      make churn-pin [REF=...]
set -euo pipefail

cd "$(dirname "$0")/.."

ref="${1:-HEAD}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git archive "$ref" | tar -x -C "$tmp/ref"

# run.sh exits non-zero when the workload's own audit fails (the churn
# world's replica audit does today); the report is what is pinned.
report() {
  (cd "$1" && sh perfbench/run.sh --workload mem_churn --seed 7 \
    --seconds 3 --trace 0 2>/dev/null || true) |
    grep -v -E '^  (setup times:|setup_s |ops_s |rss_mb )' |
    sed -E 's/"(setup_s|ops_s|rss_mb)": \{[^}]*\}(, )?//g; s/, \}/}/g'
}

report "$tmp/ref" > "$tmp/ref.txt"
report . > "$tmp/tree.txt"
if [ ! -s "$tmp/ref.txt" ]; then
  echo "churn-pin: no report from $ref" >&2
  exit 1
fi
if diff -u "$tmp/ref.txt" "$tmp/tree.txt"; then
  echo "churn-pin OK ($ref)"
else
  echo "churn-pin: the mem_churn report differs from $ref" >&2
  exit 1
fi
