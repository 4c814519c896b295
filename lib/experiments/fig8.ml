(* Figure 8: unavailability experienced by individual users, ranked by
   decreasing unavailability (inter = 5 s).  D2's failures hit far
   fewer users — the §4.3 trade-off made visible. *)

module Report = D2_util.Report
module Keymap = D2_trace.Keymap
module Availability = D2_core.Availability

let ranked scale ~mode =
  let trace = Data.harvard scale in
  let replay = Suites.availability_replay scale ~mode ~trial:0 in
  let st = Availability.task_unavailability ~trace ~replay ~inter:5.0 in
  st.Availability.per_user_unavailability

let run scale =
  let r =
    Report.create
      ~title:"Figure 8: per-user task unavailability, ranked (inter=5s, trial 0)"
      ~columns:[ "rank"; "traditional"; "traditional-file"; "d2" ]
  in
  let tr = ranked scale ~mode:Keymap.Traditional in
  let tf = ranked scale ~mode:Keymap.Traditional_file in
  let d2 = ranked scale ~mode:Keymap.D2 in
  let cell arr i =
    if i < Array.length arr && snd arr.(i) > 0.0 then Report.fmt_sci (snd arr.(i))
    else "-"
  in
  let affected arr =
    Array.fold_left (fun acc (_, u) -> if u > 0.0 then acc + 1 else acc) 0 arr
  in
  for i = 0 to 19 do
    Report.add_row r [ string_of_int (i + 1); cell tr i; cell tf i; cell d2 i ]
  done;
  Report.add_row r
    [
      "affected users";
      string_of_int (affected tr);
      string_of_int (affected tf);
      string_of_int (affected d2);
    ];
  [ r ]

let cells scale =
  Suites.trace_cell scale `Harvard
  :: List.map (fun mode -> Suites.avail_cell scale ~mode ~trial:0) Suites.all_modes
