(* Figure 15: latency scatter vs the traditional-file DHT. *)

module Keymap = D2_trace.Keymap

let run scale =
  [
    Fig14.scatter_summary scale ~baseline_mode:Keymap.Traditional_file ~which:`Seq
      ~title:"Figure 15a: access-group latency, D2 vs traditional-file (seq)";
    Fig14.scatter_summary scale ~baseline_mode:Keymap.Traditional_file ~which:`Para
      ~title:"Figure 15b: access-group latency, D2 vs traditional-file (para)";
  ]

let cells scale = Fig14.cells_for scale ~baseline_mode:Keymap.Traditional_file
