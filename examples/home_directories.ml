(* Home-directory service: the paper's motivating scenario (§1, §3).

   A community of users stores home directories in the DHT.  We replay
   a synthetic NFS week against both a D2 and a traditional deployment
   while injecting correlated node failures, and compare how often a
   user-visible task fails — the paper's headline availability result
   (Fig. 7) at example scale.

   Run with: dune exec examples/home_directories.exe *)

module Rng = D2_util.Rng
module Harvard = D2_trace.Harvard
module Failure = D2_trace.Failure
module Keymap = D2_trace.Keymap
module Availability = D2_core.Availability

let () =
  let params =
    { Harvard.default_params with Harvard.users = 20;
      target_bytes = 32 * 1024 * 1024; days = 3.0 }
  in
  let trace = Harvard.generate ~rng:(Rng.create 7) ~params () in
  Printf.printf "Synthetic NFS trace: %d users, %d block accesses over %.0f days\n"
    trace.D2_trace.Op.users
    (Array.length trace.D2_trace.Op.ops)
    (trace.D2_trace.Op.duration /. 86400.0);
  let failures =
    Failure.generate ~rng:(Rng.create 8) ~n:60 ~duration:trace.D2_trace.Op.duration ()
  in
  Printf.printf "Failure trace: %d up/down events on 60 nodes (correlated outages included)\n\n"
    (Array.length failures.Failure.events);
  List.iter
    (fun mode ->
      let replay = Availability.replay ~trace ~failures ~mode ~seed:11 () in
      let st = Availability.task_unavailability ~trace ~replay ~inter:5.0 in
      let affected =
        Array.fold_left
          (fun acc (_, u) -> if u > 0.0 then acc + 1 else acc)
          0 st.Availability.per_user_unavailability
      in
      Printf.printf
        "%-18s  %5d tasks, %3d failed (unavailability %.2e), %2d users affected, %.1f nodes/task\n"
        (Keymap.mode_name mode) st.Availability.tasks st.Availability.failed
        st.Availability.unavailability affected st.Availability.mean_nodes_per_task)
    [ Keymap.Traditional; Keymap.Traditional_file; Keymap.D2 ];
  print_endline "\nD2 tasks touch ~2 replica groups instead of ~15, so correlated";
  print_endline "outages fail an order of magnitude fewer tasks, concentrated in";
  print_endline "the few users whose data lived on the dead group (paper Figs. 7-8)."
