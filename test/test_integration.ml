(* End-to-end integration tests: the full stack (FS over store over
   ring, with balancing and failures) behaving as one system, plus
   determinism guarantees across the simulators. *)

module Key = D2_keyspace.Key
module Engine = D2_simnet.Engine
module Cluster = D2_store.Cluster
module Balancer = D2_balance.Balancer
module Fs = D2_fs.Fs
module Rng = D2_util.Rng
module Harvard = D2_trace.Harvard
module Failure = D2_trace.Failure
module Keymap = D2_trace.Keymap
module Availability = D2_core.Availability
module Perf = D2_core.Perf

(* A volume stays fully readable while the balancer reshuffles IDs and
   nodes crash and recover underneath it. *)
let test_fs_survives_rebalancing_and_failures () =
  let engine = Engine.create () in
  let rng = Rng.create 31 in
  let n = 24 in
  let ids = Array.init n (fun _ -> Key.random rng) in
  let config =
    { Cluster.default_config with Cluster.migration_bandwidth = 10_000_000.0 }
  in
  let cluster = Cluster.create ~engine ~config ~ids in
  let fs = Fs.create ~cluster ~volume:"it" ~mode:Fs.D2 ~write_back:false () in
  (* A directory tree big enough to be worth balancing. *)
  let contents = Hashtbl.create 64 in
  for d = 0 to 5 do
    for f = 0 to 7 do
      let path = Printf.sprintf "/data/d%d/f%d" d f in
      let data = String.make (4_000 + (997 * ((d * 8) + f))) (Char.chr (65 + f)) in
      Fs.write_file fs ~path ~data;
      Hashtbl.replace contents path data
    done
  done;
  ignore (Balancer.attach ~cluster ~rng:(Rng.split rng) ~until:(12.0 *. 3600.0) ());
  (* Let balancing begin, then crash two nodes mid-flight. *)
  Engine.run engine ~until:3600.0;
  Cluster.fail cluster ~node:0;
  Cluster.fail cluster ~node:1;
  Engine.run engine ~until:(6.0 *. 3600.0);
  Hashtbl.iter
    (fun path data ->
      match Fs.read_file fs path with
      | Some d when d = data -> ()
      | _ -> Alcotest.failf "%s unreadable or corrupt during failures" path)
    contents;
  (* Recover, finish balancing, verify again plus invariants. *)
  Cluster.recover cluster ~node:0;
  Cluster.recover cluster ~node:1;
  Engine.run engine ~until:(14.0 *. 3600.0);
  Hashtbl.iter
    (fun path data ->
      match Fs.read_file fs path with
      | Some d when d = data -> ()
      | _ -> Alcotest.failf "%s unreadable after recovery" path)
    contents;
  Cluster.check_invariants cluster;
  (* The balancer should have spread the initially-concentrated volume. *)
  let nonzero = ref 0 in
  for i = 0 to n - 1 do
    if (Cluster.node_stats cluster i).Cluster.physical_bytes > 0 then incr nonzero
  done;
  Alcotest.(check bool)
    (Printf.sprintf "data spread over %d nodes" !nonzero)
    true (!nonzero > 6)

(* Two identical runs of the availability simulator produce identical
   outcomes — the whole stack is deterministic. *)
let test_availability_deterministic () =
  let params =
    { Harvard.default_params with Harvard.users = 8; target_bytes = 8 * 1024 * 1024;
      days = 1.0 }
  in
  let trace = Harvard.generate ~rng:(Rng.create 77) ~params () in
  let failures = Failure.generate ~rng:(Rng.create 78) ~n:20 ~duration:trace.D2_trace.Op.duration () in
  let run () =
    let r = Availability.replay ~trace ~failures ~mode:Keymap.D2 ~seed:79 () in
    (r.Availability.op_ok, r.Availability.op_node)
  in
  let a_ok, a_node = run () in
  let b_ok, b_node = run () in
  Alcotest.(check bool) "op_ok identical" true (a_ok = b_ok);
  Alcotest.(check bool) "op_node identical" true (a_node = b_node)

(* Same for a performance pass. *)
let test_perf_deterministic () =
  let params =
    { Harvard.default_params with Harvard.users = 6; target_bytes = 8 * 1024 * 1024;
      days = 1.0 }
  in
  let trace = Harvard.generate ~rng:(Rng.create 81) ~params () in
  let config =
    { (Perf.default_config ~nodes:20 ~bandwidth:1_500_000.0) with
      Perf.base_nodes = 20; windows = 2; warmup = 3600.0 }
  in
  let run () = Perf.run_pass ~trace ~mode:Keymap.D2 ~config in
  let a = run () and b = run () in
  Alcotest.(check (float 1e-9)) "lookup msgs" a.Perf.lookup_msgs_per_node b.Perf.lookup_msgs_per_node;
  Alcotest.(check (float 1e-9)) "miss rate" a.Perf.miss_rate b.Perf.miss_rate;
  Alcotest.(check int) "same group count" (Hashtbl.length a.Perf.groups)
    (Hashtbl.length b.Perf.groups);
  Hashtbl.iter
    (fun gid (ga : Perf.group_perf) ->
      match Hashtbl.find_opt b.Perf.groups gid with
      | None -> Alcotest.fail "group missing in rerun"
      | Some gb ->
          Alcotest.(check (float 1e-9)) "seq latency" ga.Perf.seq gb.Perf.seq;
          Alcotest.(check (float 1e-9)) "para latency" ga.Perf.para gb.Perf.para)
    a.Perf.groups

(* A one-node "cluster" still behaves sanely end to end. *)
let test_single_node_cluster () =
  let engine = Engine.create () in
  let rng = Rng.create 90 in
  let ids = [| Key.random rng |] in
  let cluster = Cluster.create ~engine ~config:Cluster.default_config ~ids in
  let fs = Fs.create ~cluster ~volume:"solo" ~mode:Fs.D2 ~write_back:false () in
  Fs.write_file fs ~path:"/only/file" ~data:"alone";
  Alcotest.(check (option string)) "readable" (Some "alone") (Fs.read_file fs "/only/file");
  Engine.run engine;
  Cluster.check_invariants cluster;
  Alcotest.(check int) "everything on the node" 1
    (List.length (Cluster.physical_holders cluster ~key:(List.hd (Fs.file_block_keys fs "/only/file"))))

(* Multiple independent volumes coexist on one cluster without key
   collisions (the perf simulator's volume-replication trick relies on
   this). *)
let test_many_volumes_coexist () =
  let engine = Engine.create () in
  let rng = Rng.create 91 in
  let ids = Array.init 16 (fun _ -> Key.random rng) in
  let cluster = Cluster.create ~engine ~config:Cluster.default_config ~ids in
  let volumes =
    List.init 4 (fun i ->
        Fs.create ~cluster ~volume:(Printf.sprintf "vol%d" i) ~mode:Fs.D2
          ~write_back:false ())
  in
  List.iteri
    (fun i fs -> Fs.write_file fs ~path:"/same/path" ~data:(Printf.sprintf "content-%d" i))
    volumes;
  List.iteri
    (fun i fs ->
      Alcotest.(check (option string)) "isolated" (Some (Printf.sprintf "content-%d" i))
        (Fs.read_file fs "/same/path"))
    volumes;
  Cluster.check_invariants cluster

let () =
  Alcotest.run "d2_integration"
    [
      ( "system",
        [
          Alcotest.test_case "fs survives rebalancing + failures" `Quick
            test_fs_survives_rebalancing_and_failures;
          Alcotest.test_case "single-node cluster" `Quick test_single_node_cluster;
          Alcotest.test_case "volumes coexist" `Quick test_many_volumes_coexist;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "availability replay" `Quick test_availability_deterministic;
          Alcotest.test_case "performance pass" `Quick test_perf_deterministic;
        ] );
    ]
