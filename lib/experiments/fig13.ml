(* Figure 13: mean per-user lookup-cache miss rate per scenario —
   flat for D2 and traditional-file, growing with system size for the
   traditional DHT (§9.3). *)

module Report = D2_util.Report
module Keymap = D2_trace.Keymap
module Perf = D2_core.Perf

let run scale =
  let r =
    Report.create ~title:"Figure 13: mean lookup cache miss rate"
      ~columns:[ "nodes"; "traditional"; "traditional-file"; "d2" ]
  in
  (* Miss rates are bandwidth-independent; report per system size. *)
  let bandwidth = List.hd (Config.perf_bandwidths scale) in
  List.iter
    (fun nodes ->
      let get mode = (Suites.perf_pass scale ~mode ~nodes ~bandwidth).Perf.miss_rate in
      Report.add_row r
        [
          string_of_int nodes;
          Report.fmt_pct (get Keymap.Traditional);
          Report.fmt_pct (get Keymap.Traditional_file);
          Report.fmt_pct (get Keymap.D2);
        ])
    (Config.perf_sizes scale);
  [ r ]

let cells = Fig9.cells
