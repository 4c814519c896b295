#!/bin/sh
# Build the benchmark and the d2d daemon from this checkout, then run
#   perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# from the root of the checkout.  Build output goes to stderr; the
# benchmark's last line of stdout is its JSON result.
set -e
cd "$(dirname "$0")/.."
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/d2bench.exe ./bin/d2d.exe 1>&2
bench=./_build/default/perfbench/d2bench.exe
# Run on one CPU (the first this process may use), daemons included:
# on a shared two-vCPU host, spreading the three daemons and the client
# over both vCPUs swung throughput threefold between runs.  See NOTES.md.
if command -v taskset >/dev/null 2>&1; then
  cpu=$(taskset -pc $$ | sed 's/.*: *//; s/[-,].*//')
  exec taskset -c "$cpu" "$bench" "$@"
fi
exec "$bench" "$@"
