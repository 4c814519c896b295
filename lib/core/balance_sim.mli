(** The §10 load-balance and overhead simulator (Figs. 16–17,
    Tables 3–4).

    Replays a workload's storage mutations (creates, overwrites,
    deletions) against one of four setups and records, over virtual
    time, the storage imbalance (normalized standard deviation of
    per-node stored bytes) plus daily traffic volumes:

    - [D2]: locality keys + Karger–Ruhl balancing with pointers;
    - [Traditional]: hashed block keys, consistent hashing only;
    - [Traditional_file]: hashed per-file keys, consistent hashing;
    - [Traditional_merc]: hashed block keys {e plus} active balancing
      (the paper's "Traditional+Merc" reference line in Fig. 16).

    The timeline matches §8.1: all initial data is inserted at time 0
    and the balancer (when present) runs for [warmup] before the trace
    starts; imbalance is sampled every [sample_interval] during the
    replay; daily counters are cluster-counter deltas at day
    boundaries of the trace clock. *)

type setup = D2 | Traditional | Traditional_file | Traditional_merc

val setup_name : setup -> string
val all_setups : setup list

type params = {
  nodes : int;
  seed : int;
  warmup : float;  (** paper: 3 days *)
  sample_interval : float;  (** paper plots hours; default 3600 s *)
  replicas : int;  (** default 3 *)
  use_pointers : bool;  (** D2 pointer optimization; default true *)
}

val default_params : nodes:int -> seed:int -> params

type result = {
  r_setup : setup;
  samples : (float * float) array;  (** (trace time, imbalance) *)
  max_over_mean : float;  (** time-averaged max/mean load *)
  daily_written_mb : float array;  (** W_i per trace day, MB *)
  daily_removed_mb : float array;  (** R_i *)
  daily_migrated_mb : float array;  (** L_i (load balancing only) *)
  total_at_day_start_mb : float array;  (** T_i *)
  balancer_moves : int;
}

val run : trace:D2_trace.Op.t -> setup:setup -> params:params -> result
(** Replays via the trace's compiled {!D2_trace.Plan} (shared columnar
    fields and precomputed keys). *)
