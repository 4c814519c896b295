(* d2bench: the D2 benchmark's one command.

     d2bench --workload W --seed N --seconds S --trace 0|1

   runs workload W from seed N with an S-second measured window.
   BENCHMARK.json names tcp_trace and tcp_durable; mem_churn and
   sim_repro run by hand (NOTES.md says why).  --trace 0 prints the
   end-to-end metrics; --trace 1 prints the per-layer metrics of a
   traced run beside the untraced throughput.  The last line of
   standard output is one JSON object; the exit code is non-zero when
   a check failed.  See perfbench/NOTES.md. *)

open D2_perfbench

let usage =
  "d2bench --workload tcp_trace|tcp_durable|mem_churn|sim_repro --seed N \
   --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let write_expected = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured window, seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ( "--write-expected",
        Arg.Set write_expected,
        " regenerate sim_repro's stored report copy" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !write_expected then begin
    Sim.write_expected ();
    exit 0
  end;
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  (* Exit through [at_exit] on a signal, so the daemons this run
     started are stopped with it. *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  Common.mkdir_p Common.run_dir;
  let traced = !trace = 1 and seed = !seed and seconds = !seconds in
  let correct, attempted, failed, metrics =
    match !workload with
    | "tcp_trace" | "tcp_durable" ->
        let w = if !workload = "tcp_trace" then Tcp.Trace else Tcp.Durable in
        if traced then Tcp.run_traced w ~seed ~seconds else Tcp.run w ~seed ~seconds
    | "mem_churn" ->
        if traced then Churn.run_traced ~seed ~seconds else Churn.run ~seed ~seconds
    | "sim_repro" -> if traced then Sim.run_traced () else Sim.run ()
    | w ->
        Printf.eprintf "d2bench: unknown workload %S\n%s\n" w usage;
        exit 2
  in
  Common.print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
