(* sim_repro: the simulator's quick-scale fig7, fig9 and fig16 in this
   process on one job, through [D2_experiments.Registry.run_entries].
   Their inputs are fixed by the experiments themselves, so the seed
   plays no part; the report bytes are checked against the copy stored
   beside this file. *)

module Registry = D2_experiments.Registry

let entry_ids = [ "fig7"; "fig9"; "fig16" ]
let expected_path = Filename.concat "perfbench" "sim_repro.expected"

let entries () =
  List.map
    (fun id ->
      match Registry.find id with
      | Some e -> e
      | None -> failwith ("unknown registry entry " ^ id))
    entry_ids

let report outcomes =
  String.concat ""
    (List.map (fun (o : Registry.outcome) -> o.output ^ o.logs) outcomes)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_entries es = Registry.run_entries ~jobs:1 D2_experiments.Config.Quick es

(* Regenerate the stored copy (after a deliberate change to the
   experiments' output). *)
let write_expected () =
  let oc = open_out_bin expected_path in
  output_string oc (report (run_entries (entries ())));
  close_out oc

let check got =
  let expected = read_file expected_path in
  let ok = String.equal got expected in
  Printf.printf "  report: %d bytes, %s the stored copy (%d bytes)\n"
    (String.length got)
    (if ok then "identical to" else "DIFFERS FROM")
    (String.length expected);
  ok

let run () =
  let es = entries () in
  let t0 = Common.now () in
  let outcomes = run_entries es in
  let wall = Common.now () -. t0 in
  Printf.printf "sim_repro: %s at quick scale, one job\n"
    (String.concat ", " entry_ids);
  let ok = check (report outcomes) in
  let metrics =
    [
      ( Common.metric "sim_wall_s" "s" wall,
        Printf.sprintf "%d entries" (List.length es) );
      (Common.metric "rss_mb" "MB" (Common.self_hwm_mb ()), "this process's VmHWM");
    ]
  in
  List.iter (fun (m, b) -> Common.show ~base:b m) metrics;
  (ok, List.length es, (if ok then 0 else 1), List.map fst metrics)

(* Traced: one [run_entries] call per entry, each a span. *)
let run_traced () =
  let st = Traced.new_stats Traced.Client (-1) in
  Traced.open_window ();
  let outcomes =
    List.concat_map
      (fun e -> Traced.span st Traced.k_entry (fun () -> run_entries [ e ]))
      (entries ())
  in
  Traced.close_window ();
  Printf.printf "sim_repro (traced: one run_entries call per entry)\n";
  let ok = check (report outcomes) in
  Common.mkdir_p Common.run_dir;
  Traced.dump (Filename.concat Common.run_dir "spans-sim_repro.tsv");
  let metrics =
    List.map
      (fun (o : Registry.outcome) ->
        Common.metric (Printf.sprintf "sim.%s_s" o.o_entry.id) "s" o.wall)
      outcomes
  in
  List.iter (Common.show ~base:"outcome.wall") metrics;
  (ok, List.length outcomes, (if ok then 0 else 1), metrics)
