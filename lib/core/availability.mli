(** The §8 availability simulator.

    Replays a workload trace against a deployment that experiences a
    failure trace, and records for every read op whether the block's
    replica group had a live copy at access time, and which node was
    its primary.  One replay serves every task-segmentation threshold:
    {!task_unavailability} folds the per-op outcomes into per-task
    failures for any [inter].

    Timeline: blocks are inserted at virtual time 0; the load balancer
    (D2 only) then runs for [warmup] (3 simulated days in the paper)
    so node positions stabilize; the workload and the failures both
    start at the end of warmup.

    The regeneration/migration bandwidth is scaled from the paper's
    750 kbit/s by the ratio of our data-set size to the paper's 83 GB,
    so that regenerating a node's data takes the same {e simulated
    hours} it did in the paper — see EXPERIMENTS.md. *)

type params = {
  replicas : int;  (** paper: 3 *)
  redundancy : D2_store.Cluster.redundancy;
  (** whole-block replication (paper) or m-of-n erasure coding (§3's
      alternative) *)
  warmup : float;  (** seconds of pre-trace balancing; paper: 3 days *)
  use_balancer : bool;  (** true for D2 *)
  regen_hours_per_node : float;
  (** time to re-replicate one node's data at the scaled bandwidth
      (paper: ≈ 3 h); used to derive the bandwidth from data volume *)
  hybrid_replicas : bool;
  (** §11 future-work hybrid placement: one replica at the key's
      hashed ring position (see {!D2_store.Cluster.config}) *)
}

val default_params : mode:D2_trace.Keymap.mode -> params
(** [use_balancer] is set from the mode. *)

type replay = {
  op_ok : bool array;  (** per op: was the access servable (reads) / true otherwise *)
  op_node : int array;  (** per op: primary node contacted, -1 for deletes/missing *)
  trials_mode : D2_trace.Keymap.mode;
}

val replay :
  trace:D2_trace.Op.t ->
  failures:D2_trace.Failure.t ->
  mode:D2_trace.Keymap.mode ->
  seed:int ->
  ?params:params ->
  unit ->
  replay

type task_stats = {
  tasks : int;
  failed : int;
  unavailability : float;  (** failed / tasks *)
  mean_nodes_per_task : float;  (** Table 2's "mean nodes" column *)
  per_user_unavailability : (int * float) array;
  (** (user, unavailability) for users with ≥ 1 task, sorted worst
      first — Fig. 8 *)
}

val task_unavailability :
  trace:D2_trace.Op.t -> replay:replay -> inter:float -> task_stats
