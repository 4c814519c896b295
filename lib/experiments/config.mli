(** Experiment scaling presets.

    [Paper] reproduces every table and figure at a scale whose shape
    matches the paper while completing in minutes on a laptop: the
    full 83 users and 7 trace days, 247 availability nodes, 200–1000
    performance nodes.  [Quick] shrinks everything for CI-speed smoke
    runs.  The binaries select it with [--scale] or the [D2_SCALE]
    environment variable ("quick" | "paper"; default "paper"). *)

type scale = Quick | Paper

val scale_of_string : string -> scale option
(** ["quick"] or ["paper"]; [None] for anything else. *)

val scale_name : scale -> string
(** Inverse of {!scale_of_string}. *)

val master_seed : int
(** All experiment randomness derives from this (and the trial id). *)

val harvard_params : scale -> D2_trace.Harvard.params
val hp_params : scale -> D2_trace.Hp.params
val web_params : scale -> D2_trace.Web.params

val fig3_nodes : scale -> int
(** Node count for the Fig. 3 locality analysis. *)

val avail_nodes : scale -> int
(** §8: paper uses 247 (PlanetLab). *)

val avail_trials : scale -> int
(** §8: paper runs 5 trials. *)

val avail_inters : float list
(** Task inter-access thresholds: 1 s, 5 s, 15 s, 1 min. *)

val perf_sizes : scale -> int list
(** §9 system sizes; paper: 200, 500, 1000. *)

val perf_base_nodes : scale -> int
(** Size at which the data set is 1x (paper: 200). *)

val perf_bandwidths : scale -> float list
(** Access-link rates; paper: 1500 and 384 kbit/s. *)

val balance_nodes : scale -> int
(** §10 cluster size. *)

val bakeoff_nodes : scale -> int
(** Simulated ring size for the routing bake-off (paper: 10240). *)

val bakeoff_trials : scale -> int
(** Lookups per (policy, distribution) bake-off cell. *)

val repair_nodes : scale -> int
(** Live-cluster size for the anti-entropy availability experiment. *)

val repair_blocks : scale -> int
(** Blocks loaded before the kill schedule in that experiment. *)
