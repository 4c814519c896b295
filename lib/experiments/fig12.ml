(* Figure 12: per-user mean speedup over the traditional DHT in the
   largest 1500 kbps scenario — most users gain, a few with unlucky
   replica placement lose a little (§9.3). *)

module Report = D2_util.Report
module Keymap = D2_trace.Keymap
module Perf = D2_core.Perf
module Stats = D2_util.Stats

let run scale =
  let nodes = List.fold_left max 0 (Config.perf_sizes scale) in
  let bandwidth = 1_500_000.0 in
  let baseline = Suites.perf_pass scale ~mode:Keymap.Traditional ~nodes ~bandwidth in
  let d2 = Suites.perf_pass scale ~mode:Keymap.D2 ~nodes ~bandwidth in
  let r =
    Report.create
      ~title:
        (Printf.sprintf
           "Figure 12: per-user speedup over traditional (%d nodes, 1500kbps)" nodes)
      ~columns:[ "metric"; "seq"; "para" ]
  in
  let summarize which =
    let sp = Perf.speedup ~baseline ~improved:d2 ~which in
    let vals = Array.map snd sp.Perf.per_user in
    (sp, vals)
  in
  let seq_sp, seq_vals = summarize `Seq in
  let para_sp, para_vals = summarize `Para in
  let pct arr p =
    if Array.length arr = 0 then "-" else Report.fmt_float ~decimals:2 (Stats.percentile arr p)
  in
  let faster arr =
    let n = Array.length arr in
    if n = 0 then "-"
    else begin
      let f = Array.fold_left (fun a v -> if v > 1.0 then a + 1 else a) 0 arr in
      Printf.sprintf "%d/%d" f n
    end
  in
  List.iter
    (fun (label, f) -> Report.add_row r [ label; f seq_vals; f para_vals ])
    [
      ("p10 user speedup", fun a -> pct a 10.0);
      ("median user speedup", fun a -> pct a 50.0);
      ("p90 user speedup", fun a -> pct a 90.0);
      ("max user speedup", fun a -> pct a 100.0);
      ("min user speedup", fun a -> pct a 0.0);
      ("users faster under D2", faster);
    ];
  Report.add_row r
    [
      "overall geo-mean";
      Report.fmt_float ~decimals:2 seq_sp.Perf.overall;
      Report.fmt_float ~decimals:2 para_sp.Perf.overall;
    ];
  [ r ]

let cells scale =
  let nodes = List.fold_left max 0 (Config.perf_sizes scale) in
  let bandwidth = 1_500_000.0 in
  [
    Suites.trace_cell scale `Harvard;
    Suites.perf_cell scale ~mode:Keymap.Traditional ~nodes ~bandwidth;
    Suites.perf_cell scale ~mode:Keymap.D2 ~nodes ~bandwidth;
  ]
