#!/usr/bin/env python3
"""Fail CI when the quick-scale bench regresses vs the committed baseline.

Usage: check_bench_regression.py BASELINE_JSON NEW_JSON [--factor 1.25]
                                 [--micro-factor 2.0]

Compares a fresh BENCH_results.json against the committed baseline:

  * `total_wall_s` must not exceed baseline * factor.
  * each micro's ns/op must not exceed its baseline * micro-factor
    (only micros present in both files are compared; a micro may also
    carry a tighter per-name limit in MICRO_LIMITS below).

Scale/jobs mismatches make the comparison meaningless, so they are
reported and the check is skipped (exit 0) rather than producing a
spurious verdict.  Per-experiment walls are printed for context (owned
wall only; `shared_wall_s` is attribution of work counted in another
entry's wall, so it is excluded from the regression sum).

Micro ns/op are normalized per operation by the harness (bench/main.ml
divides each OLS estimate by the staged run's op count), so these
thresholds gate true per-op cost.  The default micro factor is looser
than the wall factor because micros measured after the experiment
suite inherit some machine/GC state; hard ceilings for the hot-path
kernels live in MICRO_LIMITS.
"""

import json
import sys

# Absolute ns/op ceilings for kernels with an acceptance criterion, on
# top of the relative micro factor.  Keep these loose enough for CI
# noise (~2x what a loaded post-suite run reports) but tight enough to
# catch an accidental return to boxed/allocating implementations.
MICRO_LIMITS = {
    "key_compare": 150.0,
    "lookup_cache_probe_d2": 1450.0,
    "cache_batch_resolve": 1450.0,
    "ring_successor_1000": 1000.0,
    # One absolute gate per compiled routing policy (all drive the same
    # jump-table kernel; chord/kad tables are denser but a route is the
    # same binary-search walk), plus the α=2 frontier kernel, which does
    # up to 2x the per-hop work of a single-path route and must stay
    # allocation-free.
    "router_route": 8000.0,
    "router_route_chord": 8000.0,
    "router_route_kad": 8000.0,
    "route_alpha": 16000.0,
    "net_frame_encode": 150.0,
    "net_mem_rpc": 150000.0,
    # Anti-entropy gates: a root digest build over 4096 entries bounds
    # the fixed CRC fold every repair round pays (~247k quiet), and a
    # quorum-2 get must stay within ~2x the plain RPC since the owner
    # only adds one replica round-trip plus version compares (~40k
    # quiet).
    "digest_build_4k": 800000.0,
    "quorum_get": 120000.0,
    # Pipelined-runtime gates: coalesced frames must stay cheap per
    # frame (a return to one-write-per-frame shows up as ~10x), and a
    # 16-deep pipelined get must stay well under the synchronous RPC's
    # per-op cost.
    "net_write_coalesce": 1500.0,
    "net_pipelined_rpc": 100000.0,
    # Fleet gates: the shared-arena probe is the acceptance-criterion
    # kernel (issue says <= 100 ns; a quiet run reports ~56), the
    # alias-method zipf draw must stay O(1) (a return to CDF binary
    # search shows up as ~3x at n=4096), and the full per-op step
    # (wheel fire + draw + probe + re-arm) bounds the fleet's
    # end-to-end throughput.
    "zipf_sample": 150.0,
    "fleet_cache_probe": 100.0,
    "fleet_step": 600.0,
    # Durable-store gates (stores live on tmpfs, so these bound the
    # store's own code path, not device sync latency).  A quiet run
    # reports ~260/~420/~100/~590; the ceilings catch a lost write
    # buffer (per-op write(2) is ~10x), a per-put fsync (~100x), a
    # cache that stopped caching, and a recovery that re-reads
    # per-record instead of scanning chunks.  Compaction is gated per
    # relocated 8 KB record, store open and directory churn included
    # (~28k on a 2-vCPU shared host, ~42k with the old whole-victim
    # scanner); the ceiling leaves ~3x for CI noise.  An 8 KB
    # overwrite under a full 64 MB cache is gated the same way (~10k
    # on a 2-vCPU shared host, write buffer regrowth and tmpfs page
    # allocation included).
    "store_append_batch": 1500.0,
    "store_put_8k": 30000.0,
    "store_get_disk": 2500.0,
    "store_get_cached": 500.0,
    "store_recovery_replay": 3000.0,
    "store_compact": 80000.0,
}


def load(path):
    with open(path) as f:
        return json.load(f)


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    factor = 1.25
    micro_factor = 2.0
    for a in argv[1:]:
        if a.startswith("--factor"):
            factor = float(a.split("=", 1)[1] if "=" in a else args.pop())
        elif a.startswith("--micro-factor"):
            micro_factor = float(a.split("=", 1)[1] if "=" in a else args.pop())
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    baseline_path, new_path = args
    base = load(baseline_path)
    new = load(new_path)

    for key in ("scale", "jobs"):
        if base.get(key) != new.get(key):
            print(
                f"SKIP: {key} mismatch (baseline {base.get(key)!r} vs new "
                f"{new.get(key)!r}); wall-time comparison would be meaningless"
            )
            return 0

    base_walls = {e["id"]: e["wall_s"] for e in base.get("experiments", [])}
    print(f"{'experiment':24s} {'baseline':>10s} {'new':>10s} {'ratio':>7s}")
    for e in new.get("experiments", []):
        b = base_walls.get(e["id"])
        ratio = "" if not b else f"{e['wall_s'] / b:6.2f}x"
        print(
            f"{e['id']:24s} {b if b is not None else float('nan'):10.3f} "
            f"{e['wall_s']:10.3f} {ratio:>7s}"
        )

    failures = []

    base_micros = {
        m["name"]: m["ns_per_op"]
        for m in base.get("micro", [])
        if m.get("ns_per_op") is not None
    }
    new_micros = [
        m for m in new.get("micro", []) if m.get("ns_per_op") is not None
    ]
    if new_micros:
        print(f"\n{'micro':24s} {'baseline':>12s} {'new':>12s} {'limit':>12s}")
        for m in new_micros:
            name, ns = m["name"], m["ns_per_op"]
            b = base_micros.get(name)
            if b is None:
                # A micro added since the baseline was recorded has no
                # reference point; gate it only once the baseline is
                # refreshed, rather than failing every PR that adds one.
                print(f"{name:24s} {'absent':>12s} {ns:12.1f} {'(skipped)':>12s}")
                print(f"WARN: micro {name} absent from baseline; skipped")
                continue
            limits = []
            if b is not None:
                limits.append(b * micro_factor)
            if name in MICRO_LIMITS:
                limits.append(MICRO_LIMITS[name])
            limit = min(limits) if limits else None
            b_s = f"{b:12.1f}" if b is not None else f"{'new':>12s}"
            l_s = f"{limit:12.1f}" if limit is not None else f"{'-':>12s}"
            print(f"{name:24s} {b_s} {ns:12.1f} {l_s}")
            if limit is not None and ns > limit:
                failures.append(
                    f"micro {name}: {ns:.1f} ns/op exceeds limit {limit:.1f}"
                )

    b_total, n_total = base["total_wall_s"], new["total_wall_s"]
    limit = b_total * factor
    print(
        f"\ntotal_wall_s: baseline {b_total:.3f}s, new {n_total:.3f}s, "
        f"limit {limit:.3f}s (factor {factor})"
    )
    if n_total > limit:
        failures.append(
            f"total_wall_s regressed more than {(factor - 1) * 100:.0f}%"
        )
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("OK: within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
