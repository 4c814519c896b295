SHELL := /bin/bash

.PHONY: build test check-env bench bench-quick bakeoff net-lines churn-pin clean

build:
	dune build

test:
	dune runtest

# Configuration is read at the binary edge: no library reads the
# environment.  The binaries that read D2_SCALE and D2_JOBS must reject
# a malformed value as a usage error: non-zero exit, nothing on stdout,
# no experiment started.
check-env: build
	@if grep -rn 'getenv' lib/; then \
	  echo "check-env: getenv in a library (read it in bin/ instead)" >&2; \
	  exit 1; \
	fi
	@for v in D2_SCALE=bogus D2_JOBS=0; do \
	  for exe in "bench/main.exe --no-micro" "bin/d2ctl.exe run"; do \
	    if out=$$(env $$v timeout 60 ./_build/default/$$exe table1 2>/dev/null) \
	       || [ -n "$$out" ]; then \
	      echo "check-env: $$v $$exe was not a usage error" >&2; \
	      exit 1; \
	    fi; \
	  done; \
	done
	@echo "check-env OK"

bench:
	dune exec bench/main.exe

# CI smoke test: run a fast experiment subset at quick scale on two
# worker domains and diff the output (wall times normalized away)
# against the golden file.  Catches both report regressions and
# parallel-runner nondeterminism — the report bytes must not depend
# on the job count or on scheduling.  The reduced quick-scale micro
# set still runs (so the JSON has micro numbers), but its
# timing-dependent lines are filtered out of the golden diff.
bench-quick: build
	set -o pipefail; \
	D2_SCALE=quick D2_JOBS=2 dune exec bench/main.exe -- \
	  table1 fig3 ablation_routing ablation_hotspot \
	  --json /tmp/d2_bench_quick.json \
	| sed -E 's/^\[([a-z0-9_]+): [0-9.]+s\]$$/[\1: _s]/' \
	| grep -v '^Total wall time' \
	| grep -v '^results written to' \
	| grep -v '^== Bechamel micro-benchmarks ==' \
	| grep -v -E '^  [a-z0-9_]+ +([0-9.]+ ns/op|\(no estimate\))$$' \
	> /tmp/d2_bench_quick.out
	diff -u bench/golden_quick.txt /tmp/d2_bench_quick.out
	@echo "bench-quick OK"

# Paper-scale routing bake-off: all four compiled policies over
# uniform and locality-preserving ID distributions at 10240 simulated
# nodes (the numbers quoted in EXPERIMENTS.md).  Takes a few minutes;
# CI runs the quick-scale version via scripts/routing_bakeoff_smoke.sh.
bakeoff: build
	D2_SCALE=paper dune exec bench/main.exe -- bakeoff_routing --no-micro

# Added, removed and net lines per top-level directory against REF
# (default HEAD); new files count once staged.
REF ?= HEAD
net-lines:
	@scripts/net_lines.sh $(REF)

# The mem_churn report (seed 7, 3 s) of the working tree against the
# committed bench/churn_seed7.txt, timings removed: everything else
# runs on the virtual clock and must match byte for byte.
churn-pin:
	@scripts/churn_pin.sh

clean:
	dune clean
