(* Tests for the Karger–Ruhl load balancer. *)

module Balancer = D2_balance.Balancer
module Cluster = D2_store.Cluster
module Engine = D2_simnet.Engine
module Key = D2_keyspace.Key
module Rng = D2_util.Rng
module Keymap = D2_trace.Keymap

let k_of_byte b = Key.of_string (String.make 1 (Char.chr b) ^ String.make 63 '\000')

let mk ?(n = 8) () =
  let engine = Engine.create () in
  let ids = Array.init n (fun i -> k_of_byte ((i + 1) * 10)) in
  let cluster = Cluster.create ~engine ~config:Cluster.default_config ~ids in
  (engine, cluster)

let load c i = (Cluster.node_stats c i).Cluster.primary_bytes

let test_probe_moves_when_imbalanced () =
  let _, c = mk () in
  (* Node 1 owns 9 blocks; node 5 owns nothing. *)
  for b = 11 to 19 do
    Cluster.put c ~key:(k_of_byte b) ~size:100 ()
  done;
  Alcotest.(check int) "before" 900 (load c 1);
  let moved = Balancer.probe_once ~cluster:c ~prober:5 ~target:1 () in
  Alcotest.(check bool) "moved" true moved;
  (* Prober became target's predecessor and took about half the load. *)
  let l5 = load c 5 and l1 = load c 1 in
  Alcotest.(check int) "conserved" 900 (l5 + l1);
  Alcotest.(check bool) "split" true (l5 >= 300 && l5 <= 600);
  Cluster.check_invariants c

let test_probe_no_move_when_balanced () =
  let _, c = mk () in
  Cluster.put c ~key:(k_of_byte 15) ~size:100 ();
  Cluster.put c ~key:(k_of_byte 45) ~size:100 ();
  (* Loads 100 vs 100: ratio 1 < threshold. *)
  Alcotest.(check bool) "no move" false (Balancer.probe_once ~cluster:c ~prober:4 ~target:1 ());
  Alcotest.(check bool) "self probe" false (Balancer.probe_once ~cluster:c ~prober:1 ~target:1 ())

let test_probe_respects_threshold () =
  let _, c = mk () in
  (* 300 vs 100: below the default threshold of 4. *)
  for b = 11 to 13 do
    Cluster.put c ~key:(k_of_byte b) ~size:100 ()
  done;
  Cluster.put c ~key:(k_of_byte 45) ~size:100 ();
  (* Prober node 4 owns the key-45 block (100 bytes): ratio 3 < 4. *)
  Alcotest.(check bool) "3x is tolerated" false
    (Balancer.probe_once ~cluster:c ~prober:4 ~target:1 ());
  let aggressive = { Balancer.default_config with Balancer.threshold = 2.0 } in
  Alcotest.(check bool) "2x threshold moves" true
    (Balancer.probe_once ~cluster:c ~config:aggressive ~prober:4 ~target:1 ())

let test_probe_skips_down_nodes () =
  let _, c = mk () in
  for b = 11 to 19 do
    Cluster.put c ~key:(k_of_byte b) ~size:100 ()
  done;
  Cluster.fail c ~node:5;
  Alcotest.(check bool) "down prober" false (Balancer.probe_once ~cluster:c ~prober:5 ~target:1 ());
  Cluster.recover c ~node:5;
  Cluster.fail c ~node:1;
  Alcotest.(check bool) "down target" false (Balancer.probe_once ~cluster:c ~prober:5 ~target:1 ())

let test_converges_on_skewed_insert () =
  (* The paper's claim: starting from everything on one node, loads end
     within a constant factor of the mean in O(log n) steps. *)
  let engine = Engine.create () in
  let rng = Rng.create 5 in
  let n = 32 in
  let ids = Array.init n (fun _ -> Key.random rng) in
  let config =
    { Cluster.default_config with Cluster.migration_bandwidth = 100_000_000.0 }
  in
  let cluster = Cluster.create ~engine ~config ~ids in
  let km = Keymap.create Keymap.D2 ~volume:"skew" in
  for f = 0 to 255 do
    let path = Printf.sprintf "/d/%03d" f in
    for b = 0 to 3 do
      Cluster.put cluster ~key:(Keymap.key_of km ~path ~block:b) ~size:8192 ()
    done
  done;
  let b = Balancer.attach ~cluster ~rng:(Rng.split rng) ~until:(24.0 *. 3600.0) () in
  Engine.run engine ~until:(24.0 *. 3600.0 +. 7200.0);
  let loads =
    Array.init n (fun i -> float_of_int (Cluster.node_stats cluster i).Cluster.primary_bytes)
  in
  let mean = D2_util.Stats.mean loads in
  let maxload = Array.fold_left Float.max 0.0 loads in
  Alcotest.(check bool)
    (Printf.sprintf "max/mean %.1f <= 4.5" (maxload /. mean))
    true
    (maxload /. mean <= 4.5);
  let st = Balancer.stats b in
  Alcotest.(check bool) "performed moves" true (st.Balancer.moves > 0);
  Alcotest.(check bool) "probes ran" true (st.Balancer.probes > st.Balancer.moves);
  Cluster.check_invariants cluster

let test_stats_counting () =
  let _, c = mk () in
  for b = 11 to 19 do
    Cluster.put c ~key:(k_of_byte b) ~size:100 ()
  done;
  (* probe_once does not touch attach-level stats; just check the move
     boolean contract both ways. *)
  Alcotest.(check bool) "first probe moves" true
    (Balancer.probe_once ~cluster:c ~prober:5 ~target:1 ());
  (* The two halves are now comparable: probing between them is idle. *)
  Alcotest.(check bool) "equals do not move" false
    (Balancer.probe_once ~cluster:c ~prober:5 ~target:1 ())

let () =
  Alcotest.run "d2_balance"
    [
      ( "probe",
        [
          Alcotest.test_case "moves when imbalanced" `Quick test_probe_moves_when_imbalanced;
          Alcotest.test_case "idle when balanced" `Quick test_probe_no_move_when_balanced;
          Alcotest.test_case "threshold" `Quick test_probe_respects_threshold;
          Alcotest.test_case "skips down nodes" `Quick test_probe_skips_down_nodes;
          Alcotest.test_case "stats contract" `Quick test_stats_counting;
        ] );
      ( "convergence",
        [ Alcotest.test_case "skewed insert balances" `Quick test_converges_on_skewed_insert ] );
    ]
