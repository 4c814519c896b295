(* Tests for the virtual-time engine, topology, and TCP model. *)

module Engine = D2_simnet.Engine
module Topology = D2_simnet.Topology
module Tcp = D2_simnet.Tcp
module Rng = D2_util.Rng

(* {1 Engine} *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:3.0 (fun () -> log := 3 :: !log);
  Engine.schedule e ~at:1.0 (fun () -> log := 1 :: !log);
  Engine.schedule e ~at:2.0 (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3.0 (Engine.now e)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~at:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo at equal times" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~at:1.0 (fun () -> incr fired);
  Engine.schedule e ~at:5.0 (fun () -> incr fired);
  Engine.run e ~until:2.0;
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock advanced to until" 2.0 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "rest fired" 2 !fired

let test_engine_past_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~at:5.0 (fun () -> ());
  Engine.run e;
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule: time 1 is before now (5)") (fun () ->
      Engine.schedule e ~at:1.0 (fun () -> ()));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule_in: negative delay") (fun () ->
      Engine.schedule_in e ~delay:(-1.0) (fun () -> ()))

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:1.0 (fun () ->
      log := "a" :: !log;
      Engine.schedule_in e ~delay:1.0 (fun () -> log := "b" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 2.0 (Engine.now e)

let test_engine_pending () =
  let e = Engine.create () in
  Alcotest.(check int) "empty" 0 (Engine.pending e);
  Engine.schedule e ~at:1.0 (fun () -> ());
  Engine.schedule e ~at:2.0 (fun () -> ());
  Alcotest.(check int) "two queued" 2 (Engine.pending e);
  Engine.run e ~until:1.5;
  Alcotest.(check int) "one left" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let test_engine_every () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.every e ~period:1.0 ~until:5.5 (fun () -> incr count);
  Engine.run e;
  Alcotest.(check int) "5 ticks in 5.5s" 5 !count

(* Firing order is exact (time, scheduling order) however an event is
   filed: closures and posted cells, at now, within one tick, on each
   wheel level and beyond the wheel's 2^24-tick horizon (a 1 us tick
   puts 17 s past it), scheduled from inside firing events and
   between [until] slices.  Delays are drawn from a few discrete steps
   so that equal times are common.  Before each slice, [next_at] names
   the time of the first event the slice fires (or lies past [until]
   when it fires none), and is [None] exactly when nothing is pending. *)
let prop_engine_fire_order =
  QCheck.Test.make ~name:"fires in (time, scheduling order)" ~count:300
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let e = Engine.create ~granularity:1e-6 () in
      let delay () =
        let k = float_of_int (1 + Rng.int rng 30) in
        match Rng.int rng 6 with
        | 0 -> 0.0
        | 1 -> k *. 1e-7 (* within a tick *)
        | 2 -> k *. 1e-5 (* level 0 *)
        | 3 -> k *. 1e-3 (* level 1 *)
        | 4 -> k *. 0.5 (* level 2 *)
        | _ -> 16.0 +. k (* beyond the horizon *)
      in
      let scheduled = ref [] and fired = ref [] in
      let slice_first = ref None and next_ok = ref true in
      let next_id = ref 0 in
      let spawn = ref (fun () -> ()) in
      let fire id =
        fired := (Engine.now e, id) :: !fired;
        if !slice_first = None then slice_first := Some (Engine.now e);
        for _ = 1 to Rng.int rng 3 do
          !spawn ()
        done
      in
      let sink = Engine.register_sink e (fun id _ -> fire id) in
      (spawn :=
         fun () ->
           if !next_id < 400 then begin
             let id = !next_id in
             incr next_id;
             let at = Engine.now e +. delay () in
             scheduled := (at, id) :: !scheduled;
             if Rng.bool rng then Engine.post e ~sink ~at ~tag:id ~payload:0
             else Engine.schedule e ~at (fun () -> fire id)
           end);
      for _ = 1 to 1 + Rng.int rng 20 do
        !spawn ()
      done;
      for _ = 1 to 1 + Rng.int rng 8 do
        let until = Engine.now e +. delay () in
        let next = Engine.next_at e and pending = Engine.pending e in
        slice_first := None;
        Engine.run e ~until;
        let next_ok_here =
          (next = None) = (pending = 0)
          &&
          match !slice_first, next with
          | Some first, _ -> next = Some first
          | None, None -> true
          | None, Some at -> at > until
        in
        next_ok := !next_ok && next_ok_here;
        for _ = 1 to Rng.int rng 4 do
          !spawn ()
        done
      done;
      Engine.run e;
      !next_ok && Engine.next_at e = None
      && Engine.pending e = 0
      && List.rev !fired = List.sort compare !scheduled)

(* {1 Topology} *)

let test_topology_symmetric () =
  let topo = Topology.create ~rng:(Rng.create 3) ~n:50 () in
  for _ = 1 to 100 do
    let rng = Rng.create 4 in
    let i = Rng.int rng 50 and j = Rng.int rng 50 in
    Alcotest.(check (float 1e-12)) "symmetric" (Topology.rtt topo i j)
      (Topology.rtt topo j i)
  done

let test_topology_positive_and_loopback () =
  let topo = Topology.create ~rng:(Rng.create 3) ~n:20 () in
  for i = 0 to 19 do
    for j = 0 to 19 do
      let r = Topology.rtt topo i j in
      if i = j then Alcotest.(check bool) "loopback small" true (r < 0.001)
      else Alcotest.(check bool) "positive" true (r > 0.0)
    done
  done

let test_topology_mean_near_90ms () =
  let topo = Topology.create ~rng:(Rng.create 3) ~n:200 () in
  let m = Topology.mean_rtt topo in
  Alcotest.(check bool) (Printf.sprintf "mean %.0f ms in [40,200]" (m *. 1000.0)) true
    (m > 0.04 && m < 0.2)

let test_topology_bounds () =
  let topo = Topology.create ~rng:(Rng.create 3) ~n:5 () in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Topology.rtt: node index out of range") (fun () ->
      ignore (Topology.rtt topo 0 5))

(* {1 TCP model} *)

let bw = 1_500_000.0

let test_tcp_cold_8kb_two_rtts () =
  (* The §9.3 footnote: a cold window needs 2 RTTs for an 8 KB block. *)
  let conn = Tcp.fresh_conn () in
  let rtt = 0.09 in
  let t = Tcp.transfer_time conn ~now:0.0 ~rtt ~bandwidth:bw ~bytes:8192 in
  Alcotest.(check (float 1e-9)) "2 rtts" (2.0 *. rtt) t

let test_tcp_warm_one_round () =
  let conn = Tcp.fresh_conn () in
  let rtt = 0.09 in
  (* Warm the window... *)
  let t1 = Tcp.transfer_time conn ~now:0.0 ~rtt ~bandwidth:bw ~bytes:65536 in
  (* ...then an 8 KB fetch soon after (within one RTO) takes one round. *)
  let t = Tcp.transfer_time conn ~now:(t1 +. 0.05) ~rtt ~bandwidth:bw ~bytes:8192 in
  Alcotest.(check bool) "single round" true (t <= rtt +. 1e-9)

let test_tcp_idle_resets_window () =
  let conn = Tcp.fresh_conn () in
  let rtt = 0.09 in
  ignore (Tcp.transfer_time conn ~now:0.0 ~rtt ~bandwidth:bw ~bytes:65536);
  Alcotest.(check bool) "window grew" true (Tcp.window conn ~now:0.4 () > 2.0);
  (* After > RTO idle the window is back to the initial 2 packets. *)
  let idle = 100.0 in
  Alcotest.(check (float 1e-9)) "reset" Tcp.initial_window (Tcp.window conn ~now:idle ());
  let t = Tcp.transfer_time conn ~now:idle ~rtt ~bandwidth:bw ~bytes:8192 in
  Alcotest.(check (float 1e-9)) "slow start again" (2.0 *. rtt) t

let test_tcp_bandwidth_bound () =
  (* A large transfer approaches the serialization time. *)
  let conn = Tcp.fresh_conn () in
  let bytes = 10_000_000 in
  let t = Tcp.transfer_time conn ~now:0.0 ~rtt:0.01 ~bandwidth:bw ~bytes in
  let line = float_of_int (bytes * 8) /. bw in
  Alcotest.(check bool) "not faster than the line" true (t >= line);
  Alcotest.(check bool) "within 2x of the line" true (t < 2.0 *. line)

let test_tcp_zero_bytes () =
  let conn = Tcp.fresh_conn () in
  let t = Tcp.transfer_time conn ~now:0.0 ~rtt:0.05 ~bandwidth:bw ~bytes:0 in
  Alcotest.(check (float 1e-9)) "one rtt for the request" 0.05 t

let test_tcp_validation () =
  let conn = Tcp.fresh_conn () in
  Alcotest.check_raises "negative size"
    (Invalid_argument "Tcp.transfer_time: negative size") (fun () ->
      ignore (Tcp.transfer_time conn ~now:0.0 ~rtt:0.05 ~bandwidth:bw ~bytes:(-1)));
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Tcp.transfer_time: bandwidth must be positive") (fun () ->
      ignore (Tcp.transfer_time conn ~now:0.0 ~rtt:0.05 ~bandwidth:0.0 ~bytes:1))

let test_tcp_monotone_in_size () =
  let rtt = 0.05 in
  let time bytes =
    Tcp.transfer_time (Tcp.fresh_conn ()) ~now:0.0 ~rtt ~bandwidth:bw ~bytes
  in
  Alcotest.(check bool) "8k <= 64k" true (time 8192 <= time 65536);
  Alcotest.(check bool) "64k <= 1M" true (time 65536 <= time 1_000_000)

let () =
  Alcotest.run "d2_simnet"
    [
      ( "engine",
        [
          Alcotest.test_case "order" `Quick test_engine_order;
          Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "pending" `Quick test_engine_pending;
          Alcotest.test_case "every" `Quick test_engine_every;
          QCheck_alcotest.to_alcotest prop_engine_fire_order;
        ] );
      ( "topology",
        [
          Alcotest.test_case "symmetric" `Quick test_topology_symmetric;
          Alcotest.test_case "positive + loopback" `Quick test_topology_positive_and_loopback;
          Alcotest.test_case "mean rtt plausible" `Quick test_topology_mean_near_90ms;
          Alcotest.test_case "bounds" `Quick test_topology_bounds;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "cold 8KB = 2 RTTs" `Quick test_tcp_cold_8kb_two_rtts;
          Alcotest.test_case "warm = 1 round" `Quick test_tcp_warm_one_round;
          Alcotest.test_case "idle resets window" `Quick test_tcp_idle_resets_window;
          Alcotest.test_case "bandwidth bound" `Quick test_tcp_bandwidth_bound;
          Alcotest.test_case "zero bytes" `Quick test_tcp_zero_bytes;
          Alcotest.test_case "validation" `Quick test_tcp_validation;
          Alcotest.test_case "monotone in size" `Quick test_tcp_monotone_in_size;
        ] );
    ]
