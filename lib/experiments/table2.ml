(* Table 2: mean blocks and files accessed per task, and the mean
   number of distinct nodes a task touches in the traditional (block),
   traditional-file and D2 systems (§8.2). *)

module Report = D2_util.Report
module Task = D2_trace.Task
module Keymap = D2_trace.Keymap
module Availability = D2_core.Availability

let run scale =
  let trace = Data.harvard scale in
  let r =
    Report.create ~title:"Table 2: mean objects and nodes accessed per task"
      ~columns:
        [ "inter"; "blocks"; "files"; "nodes block"; "nodes file"; "nodes D2" ]
  in
  let nodes_for mode inter =
    let replay = Suites.availability_replay scale ~mode ~trial:0 in
    let st = Availability.task_unavailability ~trace ~replay ~inter in
    st.Availability.mean_nodes_per_task
  in
  List.iter
    (fun inter ->
      let tasks = Task.segment trace ~inter () in
      Report.add_row r
        [
          Printf.sprintf "%gs" inter;
          Report.fmt_float ~decimals:0 (Task.mean_over tasks Task.distinct_blocks);
          Report.fmt_float ~decimals:0 (Task.mean_over tasks Task.distinct_files);
          Report.fmt_float ~decimals:1 (nodes_for Keymap.Traditional inter);
          Report.fmt_float ~decimals:1 (nodes_for Keymap.Traditional_file inter);
          Report.fmt_float ~decimals:1 (nodes_for Keymap.D2 inter);
        ])
    Config.avail_inters;
  [ r ]

let cells scale =
  Suites.trace_cell scale `Harvard
  :: List.map (fun mode -> Suites.avail_cell scale ~mode ~trial:0) Suites.all_modes
