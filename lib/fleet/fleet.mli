(** Fleet engine: a million simulated D2 clients at hardware speed.

    Steps [clients] cache-carrying client sessions against a simulated
    D2 cluster of [nodes], entirely in virtual time on the
    deterministic {!D2_simnet.Engine}.  Per-client state is a handful
    of unboxed int columns plus [ways] packed slots in one shared
    {!D2_cache.Range_arena} — on the order of 100 bytes per client —
    so the whole fleet fits comfortably in memory and the per-op inner
    loop (zipf draw, position lookup, arena probe, wheel re-arm) never
    allocates.

    {2 Sharding and determinism}

    Clients are split over a {e fixed} number of [shards] (a config
    knob, {e not} the worker count), each with its own engine, RNG
    (split from the seed in shard order) and timer wheel; shards
    advance in lockstep between churn barriers via {!D2_util.Pool}.
    Because each shard's virtual timeline is self-contained and
    aggregation always walks shards in index order, the report is
    byte-identical whatever [jobs] is — jobs scale wall-clock
    only. *)

type config = {
  clients : int;
  shards : int;  (** fixed shard count; determinism is per-shard *)
  nodes : int;
  ways : int;  (** per-client cache slots (1..64) *)
  files : int;
  blocks : int;  (** blocks per file; sequential within a session *)
  burst : int;  (** blocks probed per wake-up within a file *)
  duration : float;  (** virtual seconds *)
  seed : int;
  jobs : int;  (** pool workers; never affects results *)
  scenario : Scenario.t;
}

val default_config : Scenario.t -> config
(** 1M clients, 4 shards, 64 nodes, 8 ways, 4096 files x 16 blocks
    read 8 per burst, 30 virtual seconds, seed 42,
    {!D2_util.Pool.default_jobs} workers. *)

type report = {
  ops : int;  (** simulated client operations completed *)
  class_stats : (int * int * int * int) array;
      (** per class: hits, misses, stale (subset of misses),
          evictions *)
  hist : int array;
      (** stack-distance histogram, length [ways + 2]
          (see {!D2_cache.Range_arena.hist}) *)
  owner_ops : int array;  (** block ops routed to each node *)
  owner_lookups : int array;  (** DHT lookups (misses) per node *)
  churn_events : int;
  virtual_time : float;
}

val run : config -> report
(** Runs the scenario to [duration] virtual seconds and aggregates.
    @raise Invalid_argument on inconsistent config (see source for
    the exact bounds; notably [files * blocks <= 262142] so positions
    fit the arena's range-id field). *)

val hit_rate_curve : report -> float array
(** [.(c)] is the simulated hit rate at cache size [c + 1], for sizes
    [1 .. ways], derived from the stack-distance histogram of one run
    (LRU inclusion property — no re-simulation). *)

val pp_report : Format.formatter -> config * report -> unit
(** Deterministic plain-text report: per-class counters, the
    hit-rate-vs-cache-size curve, and the per-owner load-concentration
    histogram.  Contains no wall-clock times, so equal seeds diff
    clean. *)
