(* Figures 14–15: the access-group latency scatter plots, summarized
   as text: bucket access groups by their baseline latency and report
   how many complete faster under D2 and by how much (§9.3).  "Above
   the diagonal" in the paper = faster in D2 here. *)

module Report = D2_util.Report
module Keymap = D2_trace.Keymap
module Perf = D2_core.Perf
module Stats = D2_util.Stats

let buckets = [ (0.0, 0.5); (0.5, 2.0); (2.0, 5.0); (5.0, 20.0); (20.0, infinity) ]

let bucket_label (a, b) =
  if b = infinity then Printf.sprintf ">%gs" a else Printf.sprintf "%g-%gs" a b

let scatter_summary scale ~baseline_mode ~which ~title =
  let nodes = List.fold_left max 0 (Config.perf_sizes scale) in
  let bandwidth = 1_500_000.0 in
  let baseline = Suites.perf_pass scale ~mode:baseline_mode ~nodes ~bandwidth in
  let d2 = Suites.perf_pass scale ~mode:Keymap.D2 ~nodes ~bandwidth in
  let pairs = Perf.latency_pairs ~baseline ~improved:d2 ~which in
  let r =
    Report.create ~title
      ~columns:
        [ "baseline latency"; "groups"; "faster in D2"; "median ratio"; "mean base (s)"; "mean d2 (s)" ]
  in
  List.iter
    (fun (a, b) ->
      let sel = Array.of_list
          (List.filter (fun (lb, _) -> lb >= a && lb < b) (Array.to_list pairs))
      in
      let n = Array.length sel in
      if n > 0 then begin
        let faster =
          Array.fold_left (fun acc (lb, li) -> if li < lb then acc + 1 else acc) 0 sel
        in
        let ratios = Array.map (fun (lb, li) -> lb /. li) sel in
        Report.add_row r
          [
            bucket_label (a, b);
            string_of_int n;
            Printf.sprintf "%d (%.0f%%)" faster (100.0 *. float_of_int faster /. float_of_int n);
            Report.fmt_float ~decimals:2 (Stats.median ratios);
            Report.fmt_float ~decimals:2 (Stats.mean (Array.map fst sel));
            Report.fmt_float ~decimals:2 (Stats.mean (Array.map snd sel));
          ]
      end)
    buckets;
  let n = Array.length pairs in
  let above =
    Array.fold_left (fun acc (lb, li) -> if li < lb then acc + 1 else acc) 0 pairs
  in
  if n > 0 then
    Report.add_row r
      [
        "all";
        string_of_int n;
        Printf.sprintf "%d (%.0f%%)" above (100.0 *. float_of_int above /. float_of_int n);
        "";
        "";
        "";
      ];
  r

let run scale =
  [
    scatter_summary scale ~baseline_mode:Keymap.Traditional ~which:`Seq
      ~title:"Figure 14a: access-group latency, D2 vs traditional (seq)";
    scatter_summary scale ~baseline_mode:Keymap.Traditional ~which:`Para
      ~title:"Figure 14b: access-group latency, D2 vs traditional (para)";
  ]

let cells_for scale ~baseline_mode =
  let nodes = List.fold_left max 0 (Config.perf_sizes scale) in
  let bandwidth = 1_500_000.0 in
  [
    Suites.trace_cell scale `Harvard;
    Suites.perf_cell scale ~mode:baseline_mode ~nodes ~bandwidth;
    Suites.perf_cell scale ~mode:Keymap.D2 ~nodes ~bandwidth;
  ]

let cells scale = cells_for scale ~baseline_mode:Keymap.Traditional
