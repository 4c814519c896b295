#!/usr/bin/env bash
# Live-cluster smoke test: boot a 3-process d2d cluster on loopback
# TCP, replay pipelined load through it at several in-flight depths,
# and require zero failed ops, a minimum best-depth throughput, and a
# clean daemon shutdown.  The saturation curve d2load prints is saved
# to $SMOKE_CURVE so CI can upload it as an artifact.
#
# A second leg reruns the cluster on the durable segment store: a
# group-commit throughput floor on tmpfs (where each daemon's top GC
# heap, from its shutdown line, must also stay under a bound), then a
# kill -9 of every
# daemon mid-load on a real-disk store dir, a restart from the same
# directories, and a byte-exact verification that every acked
# pre-crash block survived.  The combined report lands in
# $SMOKE_DURABLE_LOG.
#
# A third leg exercises anti-entropy repair: one daemon of a 3-node
# disk cluster is kill -9'd mid-load, its store directory wiped, and
# the daemon restarted empty; a quorum-2 verification must pass while
# the node refills, and on shutdown the restarted daemon must report a
# non-empty store — every block it holds arrived over digest repair /
# read-repair, not recovery.
#
# Before any cluster boots, a one-node daemon is started twice with
# D2_REPAIR_INTERVAL set to 0 and to 2: both are valid intervals, and
# the daemon must report each in its "listening on" line.  Then every
# out-of-range runtime setting must be a usage error: d2d and d2load
# exit 2 within 5 s, and the daemon never starts listening.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT_BASE="${D2_NET_PORT_BASE:-7400}"
NODES=3
DURATION="${SMOKE_DURATION:-1}"
DOMAINS="${SMOKE_DOMAINS:-2}"
SWEEP="${SMOKE_SWEEP:-1,4,16,64}"
CURVE="${SMOKE_CURVE:-/tmp/d2_net_smoke_curve.txt}"
# Conservative floor: loopback at in-flight 16 reaches ~100k ops/s on
# one dedicated core; 20k only catches order-of-magnitude regressions
# (lost pipelining, one write per frame) without flaking on a busy
# shared CI runner.
MIN_OPS_S="${SMOKE_MIN_OPS_S:-20000}"

dune build bin/d2d.exe bin/d2load.exe

# Environment defaults reach the daemon's flags unaltered.
for interval in 0 2; do
  out="$(D2_REPAIR_INTERVAL="$interval" ./_build/default/bin/d2d.exe \
    --node 0 --nodes 1 --port-base $((PORT_BASE + 80)) --duration 0.3)"
  if ! grep -q "repair=${interval}s)" <<<"$out"; then
    echo "net_smoke: D2_REPAIR_INTERVAL=$interval not applied:" >&2
    echo "$out" >&2
    exit 1
  fi
done

# Out-of-range settings are usage errors (exit 2), never a daemon that
# spins, starts silently or dies on an uncaught exception.
D2D="d2d.exe --node 0 --nodes 1"
bad_flags=(
  "$D2D --probe-interval 0 --duration 1"
  "$D2D --rpc-timeout=-1"
  "$D2D --repair-interval=-3"
  "$D2D --replicas=0"
  "d2load.exe --rpc-timeout=-1"
  "d2load.exe --nodes=0"
  "d2load.exe --duration 0"
)
for cmd in "${bad_flags[@]}"; do
  code=0
  # shellcheck disable=SC2086
  out="$(timeout -k 1 5 ./_build/default/bin/$cmd \
    --port-base $((PORT_BASE + 80)) 2>&1)" || code=$?
  if [ "$code" -ne 2 ] || grep -q "listening" <<<"$out"; then
    echo "net_smoke: '$cmd' exited $code, want a usage error (2):" >&2
    echo "$out" >&2
    exit 1
  fi
done

pids=()
cleanup() {
  for pid in "${pids[@]}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
}
trap cleanup EXIT

for i in $(seq 0 $((NODES - 1))); do
  ./_build/default/bin/d2d.exe --node "$i" --nodes "$NODES" \
    --port-base "$PORT_BASE" --duration 60 --domains "$DOMAINS" &
  pids+=("$!")
done

# Give the daemons a moment to bind and join each other.
sleep 1

# Sweep the pipeline depths; d2load exits non-zero on any failed or
# timed-out op, any verification mismatch, or a best depth below the
# floor.
./_build/default/bin/d2load.exe --nodes "$NODES" --port-base "$PORT_BASE" \
  --duration "$DURATION" --sweep "$SWEEP" --min-ops-s "$MIN_OPS_S" \
  | tee "$CURVE"

# Clean shutdown: SIGTERM each daemon and require exit status 0.
status=0
for pid in "${pids[@]}"; do
  kill -TERM "$pid" 2>/dev/null || true
done
for pid in "${pids[@]}"; do
  if ! wait "$pid"; then
    echo "net_smoke: daemon $pid exited non-zero" >&2
    status=1
  fi
done
pids=()

if [ "$status" -ne 0 ]; then
  exit "$status"
fi

# ---------------------------------------------------------------------
# Durability leg: the same cluster on the segment store.
# ---------------------------------------------------------------------

# Group-commit throughput is measured with the store on tmpfs: that
# isolates the store's scheduling (window batching, background
# flusher, ack release) from the device's journal-commit latency,
# which on shared CI runners varies by an order of magnitude and is
# paid identically by any design.  The crash/recovery phase runs on a
# real-disk path.  On the tmpfs leg a healthy run sustains ~70-80% of
# the in-RAM figure; the floor only catches a collapse back to
# one-sync-per-op.
if [ -d /dev/shm ] && [ -w /dev/shm ]; then
  TMPFS_ROOT_DEFAULT="/dev/shm/d2-smoke-store-$$"
else
  TMPFS_ROOT_DEFAULT="$(mktemp -d)/store"
fi
TMPFS_STORE="${SMOKE_STORE_DIR:-$TMPFS_ROOT_DEFAULT}"
DISK_STORE="${SMOKE_DISK_STORE_DIR:-$(mktemp -d)/store}"
DUR_LOG="${SMOKE_DURABLE_LOG:-/tmp/d2_net_smoke_durability.txt}"
MIN_DURABLE_OPS_S="${SMOKE_MIN_DURABLE_OPS_S:-12000}"
# Block payloads live off the OCaml heap (the store's read cache, a
# page arena that only reads fill, and borrowed frame payloads), so a
# daemon's GC heap holds only its tables.  Measured on this leg:
# 4.5-6.0 MB per daemon, against 25-26 MB when every cached and
# decoded 8 KB block was a heap string.
MAX_HEAP_MB=16
THROUGHPUT_LOGS="$(mktemp -d)"
VERIFY_OPS="${SMOKE_VERIFY_OPS:-4000}"
VERIFY_SEED="${SMOKE_VERIFY_SEED:-77}"
RESTART_LOGS="$(mktemp -d)"

REPAIR_STORE="${SMOKE_REPAIR_STORE_DIR:-$(mktemp -d)/store}"
REPAIR_LOGS="$(mktemp -d)"

cleanup_durable() {
  cleanup
  rm -rf "$TMPFS_STORE" "$DISK_STORE" "$RESTART_LOGS" \
    "$REPAIR_STORE" "$REPAIR_LOGS" "$THROUGHPUT_LOGS"
}
trap cleanup_durable EXIT

: > "$DUR_LOG"

boot_disk_cluster() { # port_base store_dir fsync extra_daemon_log_dir?
  local port_base="$1" store_dir="$2" fsync="$3" log_dir="${4:-}"
  for i in $(seq 0 $((NODES - 1))); do
    if [ -n "$log_dir" ]; then
      ./_build/default/bin/d2d.exe --node "$i" --nodes "$NODES" \
        --port-base "$port_base" --duration 120 --domains "$DOMAINS" \
        --store disk --store-dir "$store_dir" --fsync "$fsync" \
        > "$log_dir/d2d-$i.log" 2>&1 &
    else
      ./_build/default/bin/d2d.exe --node "$i" --nodes "$NODES" \
        --port-base "$port_base" --duration 120 --domains "$DOMAINS" \
        --store disk --store-dir "$store_dir" --fsync "$fsync" &
    fi
    pids+=("$!")
  done
  sleep 1
}

stop_cluster() { # signal
  for pid in "${pids[@]}"; do
    kill "-$1" "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  pids=()
}

# Phase 1: group-commit throughput floor (tmpfs store, fsync=batch).
echo "== durable throughput (store on ${TMPFS_STORE}, fsync=batch) ==" \
  | tee -a "$DUR_LOG"
boot_disk_cluster $((PORT_BASE + 20)) "$TMPFS_STORE" batch "$THROUGHPUT_LOGS"
./_build/default/bin/d2load.exe --nodes "$NODES" \
  --port-base $((PORT_BASE + 20)) --duration "$DURATION" --sweep 16 \
  --min-ops-s "$MIN_DURABLE_OPS_S" | tee -a "$DUR_LOG"
stop_cluster TERM
for i in $(seq 0 $((NODES - 1))); do
  log="$THROUGHPUT_LOGS/d2d-$i.log"
  cat "$log" >> "$DUR_LOG"
  heap="$(sed -n 's/.*top heap \([0-9.]*\) MB.*/\1/p' "$log" | tail -1)"
  if [ -z "$heap" ] || ! awk -v h="$heap" -v max="$MAX_HEAP_MB" \
       'BEGIN { exit !(h < max) }'; then
    echo "net_smoke: node $i top heap '${heap}' MB, want < $MAX_HEAP_MB MB" >&2
    cat "$log" >&2
    exit 1
  fi
  echo "net_smoke: node $i top heap $heap MB (< $MAX_HEAP_MB MB)" \
    | tee -a "$DUR_LOG"
done

# Phase 2: crash durability on a real-disk store.  A deterministic
# --ops run pins the expected final state; an interfering load on a
# disjoint volume is in flight when every daemon dies with kill -9
# (mid-group-commit, mid-compaction, wherever it lands).
echo "== crash durability (store on ${DISK_STORE}, fsync=batch) ==" \
  | tee -a "$DUR_LOG"
boot_disk_cluster $((PORT_BASE + 40)) "$DISK_STORE" batch
./_build/default/bin/d2load.exe --nodes "$NODES" \
  --port-base $((PORT_BASE + 40)) --ops "$VERIFY_OPS" --seed "$VERIFY_SEED" \
  | tee -a "$DUR_LOG"
./_build/default/bin/d2load.exe --nodes "$NODES" \
  --port-base $((PORT_BASE + 40)) --duration 5 --volume /killme \
  >> "$DUR_LOG" 2>&1 &
killload=$!
sleep 0.5
echo "net_smoke: kill -9 all daemons mid-load" | tee -a "$DUR_LOG"
stop_cluster KILL
wait "$killload" 2>/dev/null || true  # its ops died with the cluster

# Restart from the same directories: every daemon must recover...
boot_disk_cluster $((PORT_BASE + 40)) "$DISK_STORE" batch "$RESTART_LOGS"
for i in $(seq 0 $((NODES - 1))); do
  cat "$RESTART_LOGS/d2d-$i.log" >> "$DUR_LOG" || true
done
if [ "$(cat "$RESTART_LOGS"/d2d-*.log | grep -c 'recovered')" -lt "$NODES" ]; then
  echo "net_smoke: a restarted daemon did not report recovery" >&2
  grep -h 'recovered' "$RESTART_LOGS"/d2d-*.log >&2 || true
  exit 1
fi
grep -h 'recovered' "$RESTART_LOGS"/d2d-*.log

# ...and the cluster must serve every block the deterministic run was
# acked for, byte-for-byte.
./_build/default/bin/d2load.exe --nodes "$NODES" \
  --port-base $((PORT_BASE + 40)) --ops "$VERIFY_OPS" \
  --verify-seed "$VERIFY_SEED" | tee -a "$DUR_LOG"
stop_cluster TERM

# ---------------------------------------------------------------------
# Repair leg: lose one node's store entirely, refill it over the wire.
# ---------------------------------------------------------------------

echo "== repair (store on ${REPAIR_STORE}, repair-interval 0.5s) ==" \
  | tee -a "$DUR_LOG"
export D2_REPAIR_INTERVAL=0.5
boot_disk_cluster $((PORT_BASE + 60)) "$REPAIR_STORE" batch

# Pin the expected state with a deterministic run, then kill -9 one
# daemon while an interfering load (disjoint volume) is in flight.
./_build/default/bin/d2load.exe --nodes "$NODES" \
  --port-base $((PORT_BASE + 60)) --ops "$VERIFY_OPS" --seed "$VERIFY_SEED" \
  | tee -a "$DUR_LOG"
./_build/default/bin/d2load.exe --nodes "$NODES" \
  --port-base $((PORT_BASE + 60)) --duration 3 --volume /killme \
  >> "$DUR_LOG" 2>&1 &
killload=$!
sleep 0.5
victim=2
echo "net_smoke: kill -9 node $victim mid-load, wiping its store" \
  | tee -a "$DUR_LOG"
kill -9 "${pids[$victim]}" 2>/dev/null || true
wait "$killload" 2>/dev/null || true  # its ops may have died with the node
rm -rf "$REPAIR_STORE/node-$victim"

# Restart the victim with an empty store directory.  It rejoins via a
# fresh Join and the anti-entropy loop starts streaming its ranges
# back from the survivors.
./_build/default/bin/d2d.exe --node "$victim" --nodes "$NODES" \
  --port-base $((PORT_BASE + 60)) --duration 120 --domains "$DOMAINS" \
  --store disk --store-dir "$REPAIR_STORE" --fsync batch \
  > "$REPAIR_LOGS/d2d-$victim-restart.log" 2>&1 &
pids+=("$!")
unset D2_REPAIR_INTERVAL

# A quorum-2 read survives the refilling node (the owner consults a
# second replica and read-repairs stale copies inline), so the full
# byte-exact verification must pass without waiting for repair to
# finish.  Retry a few times to ride out the rejoin window.
verified=""
for attempt in 1 2 3 4 5 6; do
  sleep 2
  if ./_build/default/bin/d2load.exe --nodes "$NODES" \
       --port-base $((PORT_BASE + 60)) --ops "$VERIFY_OPS" \
       --verify-seed "$VERIFY_SEED" --quorum-r 2 >> "$DUR_LOG" 2>&1; then
    verified=yes
    break
  fi
  echo "net_smoke: quorum verify attempt $attempt failed; retrying" \
    | tee -a "$DUR_LOG"
done
if [ -z "$verified" ]; then
  echo "net_smoke: quorum-2 verify never passed after node wipe" >&2
  exit 1
fi
tail -2 "$DUR_LOG"

# Let a few more repair rounds run, then require the restarted daemon
# to be holding blocks it could only have received over repair.
sleep 3
stop_cluster TERM
cat "$REPAIR_LOGS/d2d-$victim-restart.log" >> "$DUR_LOG" || true
repaired_blocks="$(sed -n \
  's/.*served [0-9]* requests, \([0-9]*\) blocks.*/\1/p' \
  "$REPAIR_LOGS/d2d-$victim-restart.log" | tail -1)"
if [ -z "${repaired_blocks:-}" ] || [ "$repaired_blocks" -le 0 ]; then
  echo "net_smoke: restarted node $victim reported no repaired blocks" >&2
  cat "$REPAIR_LOGS/d2d-$victim-restart.log" >&2 || true
  exit 1
fi
echo "net_smoke: node $victim refilled to $repaired_blocks blocks via repair" \
  | tee -a "$DUR_LOG"

trap - EXIT
cleanup_durable

echo "net_smoke: OK (incl. durability + repair: wipe one node -> anti-entropy refill -> quorum verify)"
exit 0
