(* Figure 7: task unavailability for each system while varying the
   task inter-access threshold, over several trials with different
   node placements (§8.2). *)

module Report = D2_util.Report
module Keymap = D2_trace.Keymap
module Availability = D2_core.Availability

let run scale =
  let trace = Data.harvard scale in
  let trials = Config.avail_trials scale in
  let r =
    Report.create
      ~title:
        (Printf.sprintf "Figure 7: task unavailability vs inter (%d trials, %d nodes)"
           trials (Config.avail_nodes scale))
      ~columns:[ "inter"; "system"; "min"; "mean"; "max" ]
  in
  List.iter
    (fun inter ->
      List.iter
        (fun mode ->
          let vals =
            List.init trials (fun trial ->
                let replay = Suites.availability_replay scale ~mode ~trial in
                (Availability.task_unavailability ~trace ~replay ~inter)
                  .Availability.unavailability)
          in
          let arr = Array.of_list vals in
          Report.add_row r
            [
              Printf.sprintf "%gs" inter;
              Keymap.mode_name mode;
              Report.fmt_sci (Array.fold_left Float.min infinity arr);
              Report.fmt_sci (D2_util.Stats.mean arr);
              Report.fmt_sci (Array.fold_left Float.max neg_infinity arr);
            ])
        Suites.all_modes)
    Config.avail_inters;
  [ r ]

let cells scale =
  Suites.trace_cell scale `Harvard
  :: List.concat_map
       (fun mode ->
         List.init (Config.avail_trials scale) (fun trial ->
             Suites.avail_cell scale ~mode ~trial))
       Suites.all_modes
