#!/usr/bin/env bash
# Net line count of the working tree against REF (default HEAD): added,
# removed and net lines per top-level directory (a file at the root is
# its own entry), from `git diff --numstat REF`, then the total.  New
# files count once they are `git add`ed.
#
#   scripts/net_lines.sh [REF]      or      make net-lines [REF=...]
set -euo pipefail

cd "$(dirname "$0")/.."

git diff --numstat --no-renames "${1:-HEAD}" | awk -F'\t' '
  $1 == "-" { next }  # binary file: no line counts
  {
    top = $3
    sub(/\/.*/, "/", top)
    add[top] += $1; del[top] += $2
    tadd += $1; tdel += $2
  }
  END {
    n = 0
    for (d in add) keys[++n] = d
    # insertion sort: portable awk has no sort
    for (i = 2; i <= n; i++) {
      k = keys[i]
      for (j = i - 1; j > 0 && keys[j] > k; j--) keys[j + 1] = keys[j]
      keys[j + 1] = k
    }
    for (i = 1; i <= n; i++) {
      d = keys[i]
      printf "%-24s +%-6d -%-6d %+d\n", d, add[d], del[d], add[d] - del[d]
    }
    printf "%-24s +%-6d -%-6d %+d\n", "total", tadd, tdel, tadd - tdel
  }'
