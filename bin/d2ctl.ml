(* d2ctl: command-line driver for the D2 reproduction.

   - `d2ctl list`                 catalogue of reproducible experiments
   - `d2ctl run fig9 table3 ...`  regenerate specific tables/figures
   - `d2ctl run --all`            the whole evaluation
   - `d2ctl workload harvard`     synthetic-workload statistics
   - `d2ctl demo`                 end-to-end D2-FS walkthrough on a
                                  simulated cluster *)

open Cmdliner

module Config = D2_experiments.Config
module Registry = D2_experiments.Registry

let scale_arg =
  let parse s =
    match Config.scale_of_string s with
    | Some scale -> Ok scale
    | None -> Error (`Msg "scale must be `quick' or `paper'")
  in
  let print fmt s = Format.pp_print_string fmt (Config.scale_name s) in
  Arg.conv (parse, print)

let scale_term =
  Arg.(
    value
    & opt scale_arg Config.Paper ~vopt:Config.Paper
    & info [ "s"; "scale" ] ~env:(Cmd.Env.info "D2_SCALE") ~docv:"SCALE"
        ~doc:"Experiment scale: $(b,quick) or $(b,paper).")

let jobs_term =
  Arg.(
    value
    & opt int (D2_util.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~env:(Cmd.Env.info "D2_JOBS") ~docv:"JOBS"
        ~doc:
          "Worker domains running experiments concurrently (default one \
           less than the recommended domain count).  Output is printed in \
           registry order and is byte-identical across job counts.")

let setup_log verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_term =
  let flag =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log balancer/store events.")
  in
  Term.(const setup_log $ flag)

(* {1 list} *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Registry.entry) -> Printf.printf "%-20s %s\n" e.Registry.id e.Registry.title)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List reproducible experiments")
    Term.(const run $ const ())

(* {1 run} *)

let run_cmd =
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT") in
  let all = Arg.(value & flag & info [ "all" ] ~doc:"Run every experiment.") in
  let run scale jobs all ids () =
    if jobs < 1 then begin
      prerr_endline "d2ctl: --jobs must be >= 1";
      exit 2
    end;
    let entries =
      if all || ids = [] then Registry.all
      else
        List.map
          (fun id ->
            match Registry.find id with
            | Some e -> e
            | None ->
                Printf.eprintf "error: unknown experiment %S (try `d2ctl list')\n" id;
                exit 1)
          ids
    in
    Printf.printf "scale: %s (jobs: %d)\n\n%!" (Config.scale_name scale) jobs;
    List.iter Registry.print_outcome (Registry.run_entries ~jobs scale entries)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Regenerate the paper's tables and figures")
    Term.(const run $ scale_term $ jobs_term $ all $ ids $ verbose_term)

(* {1 workload} *)

let workload_cmd =
  let wname =
    Arg.(
      required
      & pos 0 (some (enum [ ("harvard", `Harvard); ("hp", `Hp); ("web", `Web); ("webcache", `Webcache) ])) None
      & info [] ~docv:"WORKLOAD")
  in
  let export =
    Arg.(
      value
      & opt (some string) None
      & info [ "export" ] ~docv:"FILE" ~doc:"Also write the trace to $(docv) (tab-separated; reload with Serialize.load_file).")
  in
  let run scale which export =
    let trace =
      match which with
      | `Harvard -> D2_experiments.Data.harvard scale
      | `Hp -> D2_experiments.Data.hp scale
      | `Web -> D2_experiments.Data.web scale
      | `Webcache -> D2_experiments.Data.webcache scale
    in
    (match export with
    | Some file ->
        D2_trace.Serialize.save_file trace file;
        Printf.printf "exported to %s\n" file
    | None -> ());
    let module Op = D2_trace.Op in
    let module Task = D2_trace.Task in
    Printf.printf "workload %s: %.1f days, %d users, %d ops, %d initial files (%.1f MB)\n"
      trace.Op.name
      (trace.Op.duration /. 86400.0)
      trace.Op.users
      (Array.length trace.Op.ops)
      (Array.length trace.Op.initial_files)
      (float_of_int (Op.total_initial_bytes trace) /. 1.0e6);
    Printf.printf "  reads=%d writes=%d creates=%d deletes=%d\n"
      (Op.count_kind trace Op.Read) (Op.count_kind trace Op.Write)
      (Op.count_kind trace Op.Create) (Op.count_kind trace Op.Delete);
    List.iter
      (fun inter ->
        let tasks = Task.segment trace ~inter () in
        Printf.printf "  inter=%4.0fs: %6d tasks, %.0f blocks/task, %.0f files/task\n"
          inter (Array.length tasks)
          (Task.mean_over tasks Task.distinct_blocks)
          (Task.mean_over tasks Task.distinct_files))
      [ 1.0; 5.0; 15.0; 60.0 ]
  in
  Cmd.v (Cmd.info "workload" ~doc:"Describe a synthetic workload")
    Term.(const run $ scale_term $ wname $ export)

(* {1 demo} *)

let demo_cmd =
  let run () =
    let module Key = D2_keyspace.Key in
    let module Cluster = D2_store.Cluster in
    let module Engine = D2_simnet.Engine in
    let module Fs = D2_fs.Fs in
    let engine = Engine.create () in
    let rng = D2_util.Rng.create 2007 in
    let ids = Array.init 32 (fun _ -> Key.random rng) in
    let cluster = Cluster.create ~engine ~config:Cluster.default_config ~ids in
    let fs = Fs.create ~cluster ~volume:"demo" ~mode:Fs.D2 () in
    print_endline "Creating /projects/d2/{README.md,src/main.ml,src/ring.ml} ...";
    Fs.write_file fs ~path:"/projects/d2/README.md" ~data:"# D2 demo volume\n";
    Fs.write_file fs ~path:"/projects/d2/src/main.ml" ~data:(String.make 20_000 'a');
    Fs.write_file fs ~path:"/projects/d2/src/ring.ml" ~data:(String.make 12_000 'b');
    Fs.flush fs;
    Engine.run engine;
    List.iter
      (fun path ->
        let keys = Fs.file_block_keys fs path in
        let holders =
          List.sort_uniq compare
            (List.concat_map (fun k -> Cluster.physical_holders cluster ~key:k) keys)
        in
        Printf.printf "%-28s %2d blocks, replicas on %d nodes, first key %s...\n" path
          (List.length keys) (List.length holders)
          (Key.short_hex (List.hd keys)))
      [ "/projects/d2/README.md"; "/projects/d2/src/main.ml"; "/projects/d2/src/ring.ml" ];
    Printf.printf "Reading back main.ml: %d bytes\n"
      (String.length (Option.get (Fs.read_file fs "/projects/d2/src/main.ml")));
    print_endline "Renaming src -> lib is O(1) in data movement (keys keep their home):";
    Fs.rename fs ~src:"/projects/d2/src/main.ml" ~dst:"/projects/d2/main_moved.ml";
    Printf.printf "  read after rename: %d bytes\n"
      (String.length (Option.get (Fs.read_file fs "/projects/d2/main_moved.ml")));
    Printf.printf "Client performed %d block fetches in total.\n" (Fs.blocks_fetched fs)
  in
  Cmd.v (Cmd.info "demo" ~doc:"End-to-end D2-FS walkthrough on a simulated cluster")
    Term.(const run $ const ())

(* {1 fsck} *)

let fsck_cmd =
  let run () =
    let module Key = D2_keyspace.Key in
    let module Cluster = D2_store.Cluster in
    let module Engine = D2_simnet.Engine in
    let module Fs = D2_fs.Fs in
    (* Build a demo volume, deliberately corrupt one block, and show
       the integrity walk finding it. *)
    let engine = Engine.create () in
    let rng = D2_util.Rng.create 99 in
    let ids = Array.init 24 (fun _ -> Key.random rng) in
    let cluster = Cluster.create ~engine ~config:Cluster.default_config ~ids in
    let fs = Fs.create ~cluster ~volume:"fsck-demo" ~mode:Fs.D2 () in
    Fs.write_file fs ~path:"/docs/report.txt" ~data:(String.make 25_000 'r');
    Fs.write_file fs ~path:"/docs/notes.txt" ~data:"short";
    Fs.write_file fs ~path:"/src/main.ml" ~data:(String.make 12_000 'm');
    Fs.flush fs;
    let show label (r : Fs.check_report) =
      Printf.printf "%s: %d dirs, %d files, %d bytes verified, %d problem(s)\n" label
        r.Fs.dirs r.Fs.files r.Fs.bytes (List.length r.Fs.problems);
      List.iter (fun p -> Printf.printf "  ! %s\n" p) r.Fs.problems
    in
    show "clean volume" (Fs.check_volume fs);
    (* Corrupt a data block of report.txt in place. *)
    let keys = Fs.file_block_keys fs "/docs/report.txt" in
    Cluster.put cluster ~key:(List.nth keys 1) ~size:4
      ~data:(D2_fs.Layout.encode (D2_fs.Layout.Data "oops")) ();
    show "after corrupting one block" (Fs.check_volume fs)
  in
  Cmd.v
    (Cmd.info "fsck" ~doc:"Integrity-walk demo: verify a volume, then detect injected corruption")
    Term.(const run $ const ())

let () =
  D2_util.Gc_tune.apply ();
  let info =
    Cmd.info "d2ctl" ~version:"1.0.0"
      ~doc:"Defragmented DHT file system (D2) — reproduction toolkit"
  in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; workload_cmd; demo_cmd; fsck_cmd ]))
