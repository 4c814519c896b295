(** A complete simulated deployment: cluster + replay bookkeeping.

    Wraps a {!D2_store.Cluster} and tracks the live block set of every
    file in a replayed trace, so that trace deletes can remove all of a
    file's blocks and overwrites reuse keys.  Keys come precomputed
    from the trace's {!D2_trace.Plan} under the replay's key policy.
    The §8 availability, §9 performance and §10 load-balance simulators
    all build on this. *)

type t

val create :
  engine:D2_simnet.Engine.t ->
  rng:D2_util.Rng.t ->
  nodes:int ->
  ?config:D2_store.Cluster.config ->
  unit ->
  t
(** Fresh deployment of [nodes] nodes with uniformly random IDs drawn
    from [rng]. *)

val cluster : t -> D2_store.Cluster.t

val load_initial_plan : t -> D2_trace.Plan.t -> D2_trace.Plan.keyset -> unit
(** Insert every block of the plan's initial files under the keyset's
    keys (without counting them as user write traffic — see
    {!baseline_written}). *)

val baseline_written : t -> float
(** Bytes inserted by [load_initial_plan]; subtract from
    [Cluster.written_bytes] to get replayed user writes. *)

val apply_plan_op : t -> D2_trace.Plan.t -> D2_trace.Plan.keyset -> int -> unit
(** Apply the storage effect of the plan's [i]-th op, keyed by
    [keys]: [Create]/[Write] put the block, [Delete] removes every live
    block of the file, [Read] does nothing. *)

val file_blocks : t -> file:int -> (int * int) list
(** Live (block index, size) pairs for a replayed file id, or [] —
    test/inspection hook. *)

val attach_balancer :
  t ->
  rng:D2_util.Rng.t ->
  ?config:D2_balance.Balancer.config ->
  until:float ->
  unit ->
  D2_balance.Balancer.t
(** Start Karger–Ruhl balancing (D2 and "Traditional+Merc" setups). *)

val imbalance : t -> float
(** Normalized standard deviation of per-node physical bytes over up
    nodes — the Fig. 16/17 metric. *)

val max_over_mean_load : t -> float
(** Max node load divided by mean node load (§10's other statistic). *)
