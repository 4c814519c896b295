(** Figures 14: access-group latency scatter vs the traditional DHT,
    summarized as per-bucket win rates and ratios (§9.3). *)

val scatter_summary :
  Config.scale ->
  baseline_mode:D2_trace.Keymap.mode ->
  which:[ `Seq | `Para ] ->
  title:string ->
  D2_util.Report.t
(** Shared scatter-table builder (also drives Figure 15). *)

val run : Config.scale -> D2_util.Report.t list

val cells_for :
  Config.scale -> baseline_mode:D2_trace.Keymap.mode -> Suites.cell list

val cells : Config.scale -> Suites.cell list
(** Datapoint dependencies of {!run}, for {!Registry.run_entries}. *)
