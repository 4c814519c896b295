(** The §9 performance simulator: lookup traffic and end-to-end
    latency of access groups.

    One {e pass} deploys a system of a given size and per-node access
    bandwidth, loads the (volume-replicated) data set, lets the
    balancer stabilize (D2), and replays the whole workload.  Outside
    the measurement windows the replay only maintains state — block
    positions, per-user range lookup caches, buffer-cache warmth.
    Inside the (deterministically chosen) 15-minute windows, every
    access group's completion latency is computed under both
    dependence extremes (paper §9.1):

    - {e seq}: accesses issue one after another; each pays its lookup
      (cache miss ⇒ O(log n) routed hops) and a TCP download whose
      window state persists per (client, server) connection;
    - {e para}: accesses issue concurrently, at most 15 in flight,
      and transfers serialize per server access link.

    Lookup messages and cache miss rates are accumulated over the
    measurement windows; group latencies are keyed by a stable group
    id so that passes of different system configurations can be
    compared group-by-group for speedups (geometric means, §9.3). *)

type config = {
  nodes : int;
  access_bandwidth : float;  (** bits/s: 1_500_000 or 384_000 *)
  replicas : int;  (** paper: 4 for the §9 experiments *)
  windows : int;  (** measurement windows; paper: 8 *)
  window_length : float;  (** seconds; paper: 900 *)
  max_in_flight : int;  (** paper: 15 *)
  cache_ttl : float;  (** paper: 4500 s *)
  warmup : float;  (** pre-trace balancing time (D2) *)
  base_nodes : int;  (** size at which the data set is 1x (paper: 200) *)
  shared_window : bool;
  (** STP-style transport (§9.3): one congestion window per client
      shared across destinations; default false (per-pair TCP) *)
  seed : int;
}

val default_config : nodes:int -> bandwidth:float -> config

type group_perf = { g_user : int; seq : float; para : float; fetched : int }

type fetch_desc = { ready : float; server : int; f_bytes : int }
(** One pending fetch of an access group: earliest issue time
    (relative to the group start), serving node, payload bytes. *)

val para_makespan :
  cfg:config ->
  conns:(int * int, D2_simnet.Tcp.conn) Hashtbl.t ->
  client:int ->
  topo:D2_simnet.Topology.t ->
  fetches:fetch_desc list ->
  float
(** Completion time of the parallel schedule: at most
    [cfg.max_in_flight] transfers in flight (earliest-free slot
    first), transfers serialized per server access link, TCP window
    state kept per [conn_key] in [conns].  [fetches] is in {e reverse}
    issue order, as accumulated during replay.  Exposed for the
    scheduling regression tests. *)

type pass = {
  p_mode : D2_trace.Keymap.mode;
  p_config : config;
  lookup_msgs_per_node : float;  (** Fig. 9 metric *)
  miss_rate : float;  (** mean per-user lookup cache miss rate, Fig. 13 *)
  window_hits : int;  (** total in-window lookup-cache hits, all users *)
  window_misses : int;  (** total in-window lookup-cache misses *)
  groups : (int, group_perf) Hashtbl.t;  (** stable group id -> latencies *)
}

val run_pass : trace:D2_trace.Op.t -> mode:D2_trace.Keymap.mode -> config:config -> pass

type speedup = {
  overall : float;  (** geometric mean over users of per-user geo-means *)
  per_user : (int * float) array;  (** sorted by user id *)
  groups_compared : int;
}

val speedup :
  baseline:pass -> improved:pass -> which:[ `Seq | `Para ] -> speedup
(** Per-group latency ratios baseline/improved (> 1 ⇒ [improved]
    faster), aggregated as the paper does: geometric mean per user,
    then across users.  Groups with zero latency in either pass (all
    buffer-cache hits) are skipped. *)

val latency_pairs :
  baseline:pass -> improved:pass -> which:[ `Seq | `Para ] -> (float * float) array
(** (baseline, improved) completion-time pairs for the scatter plots
    of Figs. 14–15. *)
