(* Tests for the core layer: key mapping, system replay, the locality
   analyzer, and the three simulators on miniature scenarios. *)

module Op = D2_trace.Op
module Harvard = D2_trace.Harvard
module Plan = D2_trace.Plan
module Failure = D2_trace.Failure
module Keymap = D2_trace.Keymap
module System = D2_core.System
module Locality = D2_core.Locality
module Availability = D2_core.Availability
module Perf = D2_core.Perf
module Balance_sim = D2_core.Balance_sim
module Cluster = D2_store.Cluster
module Engine = D2_simnet.Engine
module Topology = D2_simnet.Topology
module Tcp = D2_simnet.Tcp
module Key = D2_keyspace.Key
module Rng = D2_util.Rng

let tiny_trace =
  lazy
    (Harvard.generate ~rng:(Rng.create 55)
       ~params:
         {
           Harvard.default_params with
           Harvard.users = 8;
           target_bytes = 6 * 1024 * 1024;
           days = 1.0;
         }
       ())

(* {1 Keymap} *)

let test_keymap_stable () =
  let km = Keymap.create Keymap.D2 ~volume:"v" in
  let k1 = Keymap.key_of km ~path:"/a/b/f" ~block:0 in
  let k2 = Keymap.key_of km ~path:"/a/b/f" ~block:0 in
  Alcotest.(check bool) "stable" true (Key.equal k1 k2)

let test_keymap_modes_differ () =
  let path = "/a/b/f" in
  let kd = Keymap.key_of (Keymap.create Keymap.D2 ~volume:"v") ~path ~block:0 in
  let kt = Keymap.key_of (Keymap.create Keymap.Traditional ~volume:"v") ~path ~block:0 in
  let kf = Keymap.key_of (Keymap.create Keymap.Traditional_file ~volume:"v") ~path ~block:0 in
  Alcotest.(check bool) "d2 <> trad" false (Key.equal kd kt);
  Alcotest.(check bool) "trad <> file" false (Key.equal kt kf)

let test_keymap_d2_sibling_order () =
  let km = Keymap.create Keymap.D2 ~volume:"v" in
  (* Slots assigned in first-appearance order: /d/a before /d/b. *)
  let ka = Keymap.key_of km ~path:"/d/a" ~block:0 in
  let kb = Keymap.key_of km ~path:"/d/b" ~block:0 in
  Alcotest.(check bool) "creation order" true (Key.compare ka kb < 0);
  Alcotest.(check (list int)) "slot path" [ 1; 1 ] (Keymap.slot_path km ~path:"/d/a");
  Alcotest.(check (list int)) "sibling slot" [ 1; 2 ] (Keymap.slot_path km ~path:"/d/b")

let test_keymap_blocks_adjacent () =
  let km = Keymap.create Keymap.D2 ~volume:"v" in
  let k0 = Keymap.key_of km ~path:"/d/f" ~block:0 in
  let k1 = Keymap.key_of km ~path:"/d/f" ~block:1 in
  Alcotest.(check bool) "block order" true (Key.compare k0 k1 < 0);
  (* No other file's key fits between two consecutive blocks. *)
  let other = Keymap.key_of km ~path:"/d/g" ~block:0 in
  Alcotest.(check bool) "no interleaving" false
    (Key.compare k0 other < 0 && Key.compare other k1 < 0)

let test_keymap_slot_overflow_hashes () =
  let km = Keymap.create Keymap.D2 ~volume:"v" in
  (* Exhaust the slot space of one directory. *)
  for i = 1 to 65535 do
    ignore (Keymap.slot_path km ~path:(Printf.sprintf "/flat/f%d" i))
  done;
  (* The next child still gets a usable (hashed) slot. *)
  let slots = Keymap.slot_path km ~path:"/flat/overflow" in
  match slots with
  | [ _; s ] -> Alcotest.(check bool) "hashed slot in range" true (s >= 1 && s <= 65535)
  | _ -> Alcotest.fail "unexpected slot path shape"

(* {1 System} *)

let test_system_load_and_ops () =
  let engine = Engine.create () in
  let tiny = Lazy.force tiny_trace in
  let sys =
    System.create ~engine ~rng:(Rng.create 1) ~nodes:10 ()
  in
  (* The tiny trace's initial files, then a two-op plan: create a new
     file's block, then delete the file. *)
  let create =
    { Op.time = 0.0; user = 0; path = "/x/new"; file = 999_999; block = 0;
      kind = Op.Create; bytes = 4096 }
  in
  let trace =
    { tiny with Op.ops = [| create; { create with Op.time = 1.0; kind = Op.Delete } |] }
  in
  let plan = Plan.of_trace trace in
  let keys = Plan.replay_keys plan ~mode:Keymap.D2 ~policy:Plan.Writes_only in
  System.load_initial_plan sys plan keys;
  let cluster = System.cluster sys in
  Alcotest.(check bool) "blocks loaded" true (Cluster.block_count cluster > 100);
  Alcotest.(check bool) "baseline recorded" true (System.baseline_written sys > 0.0);
  System.apply_plan_op sys plan keys 0;
  Alcotest.(check (list (pair int int))) "file tracked" [ (0, 4096) ]
    (System.file_blocks sys ~file:999_999);
  let key = keys.Plan.op_keys.(0) in
  Alcotest.(check bool) "block stored" true (Cluster.mem cluster ~key);
  (* The simulators resolve owners through the int kernel. *)
  Alcotest.(check int) "find_owner = owner_of"
    (Option.get (Cluster.owner_of cluster ~key))
    (Cluster.find_owner cluster ~key);
  System.apply_plan_op sys plan keys 1;
  Engine.run engine ~until:60.0;
  Alcotest.(check bool) "block removed" false (Cluster.mem cluster ~key);
  Alcotest.(check int) "absent block has no owner" (-1) (Cluster.find_owner cluster ~key);
  Alcotest.(check (list (pair int int))) "untracked" []
    (System.file_blocks sys ~file:999_999)

let test_system_imbalance_metric () =
  let engine = Engine.create () in
  let sys = System.create ~engine ~rng:(Rng.create 1) ~nodes:10 () in
  (* Empty system: imbalance 0. *)
  Alcotest.(check (float 1e-9)) "empty" 0.0 (System.imbalance sys);
  let km = Keymap.create Keymap.D2 ~volume:"vol" in
  (* All data on one replica group: high imbalance. *)
  for b = 0 to 9 do
    Cluster.put (System.cluster sys) ~key:(Keymap.key_of km ~path:"/f" ~block:b) ~size:8192 ()
  done;
  Alcotest.(check bool) "skewed" true (System.imbalance sys > 1.0);
  Alcotest.(check bool) "max/mean > 1" true (System.max_over_mean_load sys > 1.0)

(* {1 Locality analyzer (Fig. 3)} *)

let test_locality_hand_example () =
  (* Two users, one hour; a universe of 40 blocks over 4 "files"
     of 10 blocks; 10 blocks per node at 4 nodes. *)
  let mk_file i =
    { Op.file_id = i; file_path = Printf.sprintf "/f%d" i; file_bytes = 10 * 8192 }
  in
  let read ~t ~user ~file ~block =
    { Op.time = t; user; path = Printf.sprintf "/f%d" file; file; block;
      kind = Op.Read; bytes = 8192 }
  in
  (* User 0 reads all of file 0 (one ordered node); user 1 reads one
     block from each file (4 ordered nodes). *)
  let ops =
    Array.of_list
      (List.init 10 (fun b -> read ~t:(float_of_int b) ~user:0 ~file:0 ~block:b)
      @ List.init 4 (fun f -> read ~t:(100.0 +. float_of_int f) ~user:1 ~file:f ~block:5))
  in
  let trace =
    { Op.name = "hand"; duration = 3600.0; users = 2; ops;
      initial_files = Array.init 4 mk_file }
  in
  let ordered = Locality.analyze trace ~nodes:4 Locality.Ordered in
  Alcotest.(check int) "two user-hours" 2 ordered.Locality.user_hours;
  (* user0: 1 node; user1: 4 nodes -> mean 2.5. *)
  Alcotest.(check (float 1e-9)) "ordered mean" 2.5 ordered.Locality.mean_nodes_per_user_hour;
  let lower = Locality.analyze trace ~nodes:4 Locality.Lower_bound in
  (* user0: ceil(10/10)=1; user1: ceil(4/10)=1 -> mean 1. *)
  Alcotest.(check (float 1e-9)) "lower bound" 1.0 lower.Locality.mean_nodes_per_user_hour

let test_locality_scenario_ordering () =
  let trace = Lazy.force tiny_trace in
  match Locality.analyze_all trace ~nodes:20 with
  | [ t; o; l ] ->
      Alcotest.(check bool) "traditional worst" true
        (t.Locality.mean_nodes_per_user_hour >= o.Locality.mean_nodes_per_user_hour);
      Alcotest.(check bool) "lower bound best" true
        (o.Locality.mean_nodes_per_user_hour >= l.Locality.mean_nodes_per_user_hour);
      Alcotest.(check bool) "big gap traditional/ordered" true
        (t.Locality.mean_nodes_per_user_hour > 2.0 *. o.Locality.mean_nodes_per_user_hour)
  | _ -> Alcotest.fail "expected three scenarios"

(* {1 Availability simulator} *)

let test_availability_no_failures_no_unavailability () =
  let trace = Lazy.force tiny_trace in
  let failures = { Failure.n = 20; duration = trace.Op.duration; events = [||] } in
  let replay =
    Availability.replay ~trace ~failures ~mode:Keymap.Traditional ~seed:3 ()
  in
  let st = Availability.task_unavailability ~trace ~replay ~inter:5.0 in
  Alcotest.(check int) "no failed tasks" 0 st.Availability.failed;
  Alcotest.(check bool) "tasks exist" true (st.Availability.tasks > 0)

let test_availability_d2_fewer_nodes_per_task () =
  let trace = Lazy.force tiny_trace in
  let failures = { Failure.n = 20; duration = trace.Op.duration; events = [||] } in
  let nodes mode =
    let replay = Availability.replay ~trace ~failures ~mode ~seed:3 () in
    (Availability.task_unavailability ~trace ~replay ~inter:5.0)
      .Availability.mean_nodes_per_task
  in
  let t = nodes Keymap.Traditional and d = nodes Keymap.D2 in
  Alcotest.(check bool)
    (Printf.sprintf "d2 %.1f << traditional %.1f" d t)
    true (d < t /. 2.0)

let test_availability_total_outage_fails_tasks () =
  let trace = Lazy.force tiny_trace in
  (* Kill every node for a window in the middle of day 1 work hours. *)
  let t0 = 10.0 *. 3600.0 and t1 = 14.0 *. 3600.0 in
  let events =
    Array.of_list
      (List.init 20 (fun n -> { Failure.time = t0; node = n; up = false })
      @ List.init 20 (fun n -> { Failure.time = t1; node = n; up = true }))
  in
  let failures = { Failure.n = 20; duration = trace.Op.duration; events } in
  let replay = Availability.replay ~trace ~failures ~mode:Keymap.D2 ~seed:3 () in
  let st = Availability.task_unavailability ~trace ~replay ~inter:5.0 in
  Alcotest.(check bool) "some tasks failed" true (st.Availability.failed > 0);
  (* And per-user stats account for them. *)
  let worst = st.Availability.per_user_unavailability in
  Alcotest.(check bool) "per-user sorted desc" true
    (Array.length worst > 0 && snd worst.(0) > 0.0)

(* {1 Performance simulator} *)

let test_perf_self_speedup_is_one () =
  let trace = Lazy.force tiny_trace in
  let config =
    { (Perf.default_config ~nodes:30 ~bandwidth:1_500_000.0) with
      Perf.base_nodes = 30; windows = 3; warmup = 3600.0 }
  in
  let p = Perf.run_pass ~trace ~mode:Keymap.Traditional ~config in
  let sp = Perf.speedup ~baseline:p ~improved:p ~which:`Seq in
  Alcotest.(check (float 1e-9)) "identity" 1.0 sp.Perf.overall;
  Alcotest.(check bool) "miss rate sane" true (p.Perf.miss_rate >= 0.0 && p.Perf.miss_rate <= 1.0);
  Alcotest.(check bool) "lookups non-negative" true (p.Perf.lookup_msgs_per_node >= 0.0)

let test_perf_d2_less_lookup_traffic () =
  let trace = Lazy.force tiny_trace in
  (* Hour-long measurement windows: the tiny trace's ops clump, and
     15-minute windows can land entirely on lookup-cache hits (zero
     lookups in both modes), which makes the strict comparison
     vacuous. *)
  let config =
    { (Perf.default_config ~nodes:30 ~bandwidth:1_500_000.0) with
      Perf.base_nodes = 30; windows = 4; warmup = 3600.0;
      window_length = 3600.0 }
  in
  let pt = Perf.run_pass ~trace ~mode:Keymap.Traditional ~config in
  let pd = Perf.run_pass ~trace ~mode:Keymap.D2 ~config in
  Alcotest.(check bool)
    (Printf.sprintf "d2 %.1f < trad %.1f lookups" pd.Perf.lookup_msgs_per_node
       pt.Perf.lookup_msgs_per_node)
    true
    (pd.Perf.lookup_msgs_per_node < pt.Perf.lookup_msgs_per_node);
  Alcotest.(check bool) "d2 lower miss rate" true (pd.Perf.miss_rate < pt.Perf.miss_rate)

let test_perf_latency_pairs_match_groups () =
  let trace = Lazy.force tiny_trace in
  let config =
    { (Perf.default_config ~nodes:30 ~bandwidth:1_500_000.0) with
      Perf.base_nodes = 30; windows = 3; warmup = 3600.0 }
  in
  let p = Perf.run_pass ~trace ~mode:Keymap.Traditional ~config in
  let pairs = Perf.latency_pairs ~baseline:p ~improved:p ~which:`Seq in
  Array.iter
    (fun (a, b) -> Alcotest.(check (float 1e-9)) "identical" a b)
    pairs

(* Reference list scheduler: the straightforward linear scan over the
   in-flight slots that Perf.para_makespan's min-heap replaced.  Pins
   the optimized schedule to the original makespans. *)
let reference_para_makespan ~(cfg : Perf.config) ~conns ~client ~topo ~fetches =
  let slots = Array.make cfg.Perf.max_in_flight 0.0 in
  let server_free : (int, float) Hashtbl.t = Hashtbl.create 16 in
  let finish = ref 0.0 in
  List.iter
    (fun (fd : Perf.fetch_desc) ->
      let best = ref 0 in
      for i = 1 to cfg.Perf.max_in_flight - 1 do
        if slots.(i) < slots.(!best) then best := i
      done;
      let ready = Float.max fd.Perf.ready slots.(!best) in
      let sfree =
        match Hashtbl.find_opt server_free fd.Perf.server with Some v -> v | None -> 0.0
      in
      let start = Float.max ready sfree in
      let ck =
        if cfg.Perf.shared_window then (client, -1) else (client, fd.Perf.server)
      in
      let conn =
        match Hashtbl.find_opt conns ck with
        | Some c -> c
        | None ->
            let c = Tcp.fresh_conn () in
            Hashtbl.replace conns ck c;
            c
      in
      let rtt = Topology.rtt topo client fd.Perf.server in
      let dur =
        Tcp.transfer_time conn ~now:start ~rtt ~bandwidth:cfg.Perf.access_bandwidth
          ~bytes:fd.Perf.f_bytes
      in
      let stop = start +. dur in
      slots.(!best) <- stop;
      Hashtbl.replace server_free fd.Perf.server stop;
      if stop > !finish then finish := stop)
    (List.rev fetches);
  !finish

let test_para_makespan_matches_reference () =
  let rng = Rng.create 7 in
  let topo = Topology.create ~rng ~n:20 () in
  List.iter
    (fun (max_in_flight, shared_window, n_fetches) ->
      let cfg =
        { (Perf.default_config ~nodes:20 ~bandwidth:1_500_000.0) with
          Perf.max_in_flight; shared_window }
      in
      (* Reverse issue order, as accumulated during replay. *)
      let fetches =
        List.init n_fetches (fun _ ->
            { Perf.ready = Rng.float rng 5.0;
              server = Rng.int rng 20;
              f_bytes = 1 + Rng.int rng 200_000 })
      in
      (* Fresh connection tables for each run: transfer_time mutates
         per-connection window state. *)
      let heap_v =
        Perf.para_makespan ~cfg ~conns:(Hashtbl.create 16) ~client:0 ~topo ~fetches
      in
      let ref_v =
        reference_para_makespan ~cfg ~conns:(Hashtbl.create 16) ~client:0 ~topo ~fetches
      in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "makespan (k=%d shared=%b n=%d)" max_in_flight shared_window
           n_fetches)
        ref_v heap_v;
      Alcotest.(check bool) "positive" true (n_fetches = 0 || heap_v > 0.0))
    [ (1, false, 30); (4, false, 50); (15, false, 100); (4, true, 50); (15, true, 7); (3, false, 0) ]

(* {1 Balance simulator} *)

let test_balance_sim_improves_imbalance () =
  let trace = Lazy.force tiny_trace in
  let params = Balance_sim.default_params ~nodes:20 ~seed:5 in
  let d2 = Balance_sim.run ~trace ~setup:Balance_sim.D2 ~params in
  let trad = Balance_sim.run ~trace ~setup:Balance_sim.Traditional ~params in
  let final r =
    let s = r.Balance_sim.samples in
    snd s.(Array.length s - 1)
  in
  Alcotest.(check bool)
    (Printf.sprintf "d2 %.2f <= traditional %.2f" (final d2) (final trad))
    true
    (final d2 <= final trad +. 0.05);
  Alcotest.(check bool) "d2 moved ids" true (d2.Balance_sim.balancer_moves > 0);
  Alcotest.(check int) "traditional does not balance" 0 trad.Balance_sim.balancer_moves;
  Alcotest.(check (float 1e-6)) "no migration without balancing" 0.0
    (Array.fold_left ( +. ) 0.0 trad.Balance_sim.daily_migrated_mb)

let test_balance_sim_webcache_empty_start () =
  (* A cache workload starts with an empty store; the first inserts
     concentrate on one node and the balancer must dig out of it. *)
  let web =
    D2_trace.Web.generate ~rng:(Rng.create 66)
      ~params:
        { D2_trace.Web.default_params with D2_trace.Web.clients = 10; days = 2.0; domains = 60 }
      ()
  in
  let trace = D2_trace.Webcache.of_web_trace web in
  let params =
    { (Balance_sim.default_params ~nodes:20 ~seed:6) with Balance_sim.warmup = 3600.0 }
  in
  let r = Balance_sim.run ~trace ~setup:Balance_sim.D2 ~params in
  let samples = r.Balance_sim.samples in
  Alcotest.(check bool) "has samples" true (Array.length samples > 10);
  let early = snd samples.(1) in
  let late = snd samples.(Array.length samples - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "imbalance falls %.2f -> %.2f" early late)
    true (late < early);
  Alcotest.(check bool) "migration happened" true
    (Array.fold_left ( +. ) 0.0 r.Balance_sim.daily_migrated_mb > 0.0)

(* Digests of Balance_sim.run on the tiny trace, one per setup:
   samples, time-averaged max/mean, the four daily columns (all as
   exact %h floats) and the balancer's move count.  The pinned values
   were captured while the per-op-record replay still existed and gave
   the same digests, so they stand in for that equivalence check.  Any
   drift in placement, traffic accounting or balancer decisions changes
   a digest. *)
let balance_digest (r : Balance_sim.result) =
  let b = Buffer.create 4096 in
  let f x = Printf.bprintf b "%h;" x in
  Array.iter (fun (t, v) -> f t; f v) r.Balance_sim.samples;
  f r.Balance_sim.max_over_mean;
  List.iter (Array.iter f)
    [ r.Balance_sim.daily_written_mb; r.Balance_sim.daily_removed_mb;
      r.Balance_sim.daily_migrated_mb; r.Balance_sim.total_at_day_start_mb ];
  Printf.bprintf b "%d" r.Balance_sim.balancer_moves;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_balance_run_pinned () =
  let trace = Lazy.force tiny_trace in
  let params = Balance_sim.default_params ~nodes:20 ~seed:5 in
  List.iter
    (fun (setup, pin) ->
      Alcotest.(check string)
        (Balance_sim.setup_name setup)
        pin
        (balance_digest (Balance_sim.run ~trace ~setup ~params)))
    [
      (Balance_sim.D2, "0774e8cea5819f912cd5a3d7907b0aa5");
      (Balance_sim.Traditional, "15c0918dd8a8c01fa770dfc91161f51c");
      (Balance_sim.Traditional_file, "400dbbee12810098d6d28bace0edaaea");
      (Balance_sim.Traditional_merc, "c742b8e7ab18545e7847d4d67a437cdc");
    ]

let test_balance_sim_accounting () =
  let trace = Lazy.force tiny_trace in
  let params = Balance_sim.default_params ~nodes:20 ~seed:5 in
  let r = Balance_sim.run ~trace ~setup:Balance_sim.D2 ~params in
  Alcotest.(check bool) "writes recorded" true
    (Array.fold_left ( +. ) 0.0 r.Balance_sim.daily_written_mb > 0.0);
  Alcotest.(check bool) "initial data in T" true (r.Balance_sim.total_at_day_start_mb.(0) > 1.0);
  Array.iter
    (fun (t, v) ->
      if t < 0.0 || v < 0.0 then Alcotest.fail "negative sample")
    r.Balance_sim.samples

let () =
  Alcotest.run "d2_core"
    [
      ( "keymap",
        [
          Alcotest.test_case "stable" `Quick test_keymap_stable;
          Alcotest.test_case "modes differ" `Quick test_keymap_modes_differ;
          Alcotest.test_case "sibling order" `Quick test_keymap_d2_sibling_order;
          Alcotest.test_case "blocks adjacent" `Quick test_keymap_blocks_adjacent;
          Alcotest.test_case "slot overflow" `Slow test_keymap_slot_overflow_hashes;
        ] );
      ( "system",
        [
          Alcotest.test_case "load + ops" `Quick test_system_load_and_ops;
          Alcotest.test_case "imbalance metric" `Quick test_system_imbalance_metric;
        ] );
      ( "locality",
        [
          Alcotest.test_case "hand example" `Quick test_locality_hand_example;
          Alcotest.test_case "scenario ordering" `Quick test_locality_scenario_ordering;
        ] );
      ( "availability",
        [
          Alcotest.test_case "no failures" `Quick test_availability_no_failures_no_unavailability;
          Alcotest.test_case "d2 fewer nodes/task" `Quick test_availability_d2_fewer_nodes_per_task;
          Alcotest.test_case "total outage" `Quick test_availability_total_outage_fails_tasks;
        ] );
      ( "perf",
        [
          Alcotest.test_case "self speedup = 1" `Quick test_perf_self_speedup_is_one;
          Alcotest.test_case "d2 less lookup traffic" `Quick test_perf_d2_less_lookup_traffic;
          Alcotest.test_case "latency pairs" `Quick test_perf_latency_pairs_match_groups;
          Alcotest.test_case "para makespan = reference" `Quick
            test_para_makespan_matches_reference;
        ] );
      ( "balance",
        [
          Alcotest.test_case "improves imbalance" `Quick test_balance_sim_improves_imbalance;
          Alcotest.test_case "webcache empty start" `Quick test_balance_sim_webcache_empty_start;
          Alcotest.test_case "run pinned digests" `Quick test_balance_run_pinned;
          Alcotest.test_case "accounting" `Quick test_balance_sim_accounting;
        ] );
    ]
