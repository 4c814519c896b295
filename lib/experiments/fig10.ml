(* Figure 10: geometric-mean speedup of D2 over the traditional DHT,
   for each system size, access bandwidth, and dependence extreme
   (seq / para) (§9.3). *)

module Report = D2_util.Report
module Keymap = D2_trace.Keymap
module Perf = D2_core.Perf

let speedup_rows scale ~baseline_mode ~title =
  let r =
    Report.create ~title
      ~columns:[ "nodes"; "bandwidth"; "seq speedup"; "para speedup"; "groups" ]
  in
  List.iter
    (fun bandwidth ->
      List.iter
        (fun nodes ->
          let baseline = Suites.perf_pass scale ~mode:baseline_mode ~nodes ~bandwidth in
          let d2 = Suites.perf_pass scale ~mode:Keymap.D2 ~nodes ~bandwidth in
          let seq = Perf.speedup ~baseline ~improved:d2 ~which:`Seq in
          let para = Perf.speedup ~baseline ~improved:d2 ~which:`Para in
          Report.add_row r
            [
              string_of_int nodes;
              Printf.sprintf "%.0fkbps" (bandwidth /. 1000.0);
              Report.fmt_float ~decimals:2 seq.Perf.overall;
              Report.fmt_float ~decimals:2 para.Perf.overall;
              string_of_int seq.Perf.groups_compared;
            ])
        (Config.perf_sizes scale))
    (Config.perf_bandwidths scale);
  [ r ]

let run scale =
  speedup_rows scale ~baseline_mode:Keymap.Traditional
    ~title:"Figure 10: speedup of D2 over the traditional DHT"

let cells_for scale ~baseline_mode =
  Suites.trace_cell scale `Harvard
  :: List.concat_map
       (fun bandwidth ->
         List.concat_map
           (fun nodes ->
             [
               Suites.perf_cell scale ~mode:baseline_mode ~nodes ~bandwidth;
               Suites.perf_cell scale ~mode:Keymap.D2 ~nodes ~bandwidth;
             ])
           (Config.perf_sizes scale))
       (Config.perf_bandwidths scale)

let cells scale = cells_for scale ~baseline_mode:Keymap.Traditional
