(** Memoized heavy simulation runs shared across experiment tables.

    Figures 7, 8 and Table 2 share the availability replays; Figures
    9–15 share the performance passes.  Each is computed once per
    (scale, configuration) and cached for the process lifetime, so
    regenerating one figure after another costs one simulation, not
    one per figure. *)

val availability_replay :
  Config.scale -> mode:D2_trace.Keymap.mode -> trial:int -> D2_core.Availability.replay

val perf_pass :
  Config.scale ->
  mode:D2_trace.Keymap.mode ->
  nodes:int ->
  bandwidth:float ->
  D2_core.Perf.pass

val balance_result :
  Config.scale ->
  trace:[ `Harvard | `Webcache ] ->
  setup:D2_core.Balance_sim.setup ->
  D2_core.Balance_sim.result

val locality :
  Config.scale ->
  workload:[ `Harvard | `Hp | `Web ] ->
  nodes:int ->
  D2_core.Locality.result list
(** Fig. 3's locality analysis, memoized per (scale, workload, node
    count). *)

val all_modes : D2_trace.Keymap.mode list
(** Traditional, Traditional_file, D2 — comparison order used in the
    tables. *)

(** {1 Datapoint cells}

    A cell is one schedulable datapoint — a (label, thunk) pair whose
    thunk warms exactly one of the memos above.  Experiments list the
    cells their [run] will read, and {!Registry.run_entries} submits
    each distinct label once to its worker pool, so a single slow
    experiment decomposes into many small tasks that keep every domain
    busy.  Labels are the dedup keys: two experiments naming the same
    cell share one computation. *)

type cell = string * (unit -> unit)

val trace_cell : Config.scale -> [ `Harvard | `Hp | `Web | `Webcache ] -> cell
val locality_cell : Config.scale -> workload:[ `Harvard | `Hp | `Web ] -> nodes:int -> cell
val avail_cell : Config.scale -> mode:D2_trace.Keymap.mode -> trial:int -> cell

val perf_cell :
  Config.scale -> mode:D2_trace.Keymap.mode -> nodes:int -> bandwidth:float -> cell

val balance_cell :
  Config.scale ->
  trace:[ `Harvard | `Webcache ] ->
  setup:D2_core.Balance_sim.setup ->
  cell
