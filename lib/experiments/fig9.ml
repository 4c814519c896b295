(* Figure 9: DHT lookup messages per node vs system size, for the
   traditional, traditional-file and D2 systems (§9.2).  D2 cuts
   lookup traffic by an order of magnitude and, unlike the
   traditional system, becomes *more* efficient per node as the
   system grows. *)

module Report = D2_util.Report
module Keymap = D2_trace.Keymap
module Perf = D2_core.Perf

let run scale =
  let r =
    Report.create
      ~title:"Figure 9: lookup messages per node during measurement windows"
      ~columns:[ "nodes"; "traditional"; "traditional-file"; "d2"; "trad/d2" ]
  in
  (* Lookup counts depend on caches and routing, not on access-link
     bandwidth, so one bandwidth's passes represent both. *)
  let bandwidth = List.hd (Config.perf_bandwidths scale) in
  List.iter
    (fun nodes ->
      let get mode =
        (Suites.perf_pass scale ~mode ~nodes ~bandwidth).Perf.lookup_msgs_per_node
      in
      let t = get Keymap.Traditional in
      let f = get Keymap.Traditional_file in
      let d = get Keymap.D2 in
      Report.add_row r
        [
          string_of_int nodes;
          Report.fmt_float ~decimals:1 t;
          Report.fmt_float ~decimals:1 f;
          Report.fmt_float ~decimals:1 d;
          (if d > 0.0 then Report.fmt_float ~decimals:1 (t /. d) else "inf");
        ])
    (Config.perf_sizes scale);
  [ r ]

let cells scale =
  let bandwidth = List.hd (Config.perf_bandwidths scale) in
  Suites.trace_cell scale `Harvard
  :: List.concat_map
       (fun nodes ->
         List.map
           (fun mode -> Suites.perf_cell scale ~mode ~nodes ~bandwidth)
           Suites.all_modes)
       (Config.perf_sizes scale)
