(** Catalogue of every reproducible experiment: the paper's tables and
    figures plus the ablations.  The bench harness and the CLI both
    drive experiments through this list.

    Experiments are independent — each seeds its own {!D2_util.Rng}
    chain and builds its own simulation state, and the shared trace /
    pass caches ({!Data}, {!Suites}) are domain-safe — so
    {!run_entries} can execute them concurrently on a
    {!D2_util.Pool} of worker domains while still printing results
    deterministically in registry order.

    Work is scheduled at {e datapoint} granularity: each entry lists
    the {!Suites.cell}s (one per trace, replay, pass, or balance run)
    its tables read, those cells are deduplicated by label and
    submitted to the pool individually, and only then is each entry's
    render task queued.  A single slow experiment — e.g. [table1],
    whose four trace generations are independent — therefore fans out
    across every worker instead of serializing on one. *)

type entry = {
  id : string;  (** e.g. "fig9", "table3", "ablation_pointers" *)
  title : string;
  run : Config.scale -> D2_util.Report.t list;
  cells : Config.scale -> Suites.cell list;
      (** datapoint dependencies of [run]; [fun _ -> []] for
          self-contained entries *)
}

val all : entry list
(** Paper order: table1, fig3, table2, fig7, fig8, fig9..fig17,
    table3, table4, then the ablations. *)

val find : string -> entry option

type outcome = {
  o_entry : entry;
  output : string;  (** rendered report tables *)
  logs : string;  (** log records captured while running this entry *)
  wall : float;
      (** elapsed seconds from this entry's earliest owned datapoint
          cell's start (or its render's start) to render end — the
          cost of the work {e attributed} to this entry *)
  shared_wall : float;
      (** summed spans of the datapoint cells this entry consumed that
          an earlier entry owned (their cost is inside that entry's
          [wall]; an entry reusing only warm memos has [wall] ≈ render
          time and the real compute here).  Fixes the 0.000-wall
          artifact datapoint scheduling gave memo-only entries. *)
}

val run_entries : ?jobs:int -> Config.scale -> entry list -> outcome list
(** Run the entries on [jobs] worker domains (default
    {!D2_util.Pool.default_jobs}) and return their outcomes {e in input order}.  All
    distinct datapoint cells are submitted first (in entry order), then
    one render task per entry.  When only one effective worker would
    exist ([jobs = 1], or a single-core machine capping the pool — see
    {!D2_util.Pool.effective_jobs}) everything runs sequentially on
    the calling domain: each entry's owned cells, then its render.
    Report output and captured logs are byte-identical
    across job counts; only the [wall] fields vary. *)

val print_outcome : outcome -> unit
(** Print the entry's tables, any captured log lines, and an
    "[id: 1.2s]" wall-time trailer. *)
