(* Figure 11: speedup of D2 over the traditional-file DHT (§9.3). *)

module Keymap = D2_trace.Keymap

let run scale =
  Fig10.speedup_rows scale ~baseline_mode:Keymap.Traditional_file
    ~title:"Figure 11: speedup of D2 over the traditional-file DHT"

let cells scale = Fig10.cells_for scale ~baseline_mode:Keymap.Traditional_file
