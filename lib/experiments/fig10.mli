(** Figure 10: speedup of D2 over the traditional DHT (§9.3). *)

val speedup_rows :
  Config.scale ->
  baseline_mode:D2_trace.Keymap.mode ->
  title:string ->
  D2_util.Report.t list
(** Shared speedup-table builder (also drives Figure 11). *)

val run : Config.scale -> D2_util.Report.t list

val cells_for :
  Config.scale -> baseline_mode:D2_trace.Keymap.mode -> Suites.cell list

val cells : Config.scale -> Suites.cell list
(** Datapoint dependencies of {!run}, for {!Registry.run_entries}. *)
