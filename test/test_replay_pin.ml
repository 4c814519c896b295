(* Replay pins: the availability / ablation / Fig-9-style outputs of a
   small deterministic workload, captured from the pre-arena Cluster
   implementation.  The block-arena + timer-wheel + epoch-cache rewrite
   must reproduce these numbers exactly — every event keeps its (time,
   scheduling-order) position, so the simulations are bit-identical.

   Four redundancy setups (the erasure ablation's grid): replication
   r=3, erasure 2-of-4, 3-of-6 and 2-of-6. *)

module Op = D2_trace.Op
module Failure = D2_trace.Failure
module Keymap = D2_trace.Keymap
module Availability = D2_core.Availability
module Perf = D2_core.Perf
module Cluster = D2_store.Cluster
module Rng = D2_util.Rng

(* A miniature Harvard-like trace: initial files plus two simulated
   days of per-user bursts.  Deterministic (seeded Rng), validated. *)
let pin_trace =
  lazy
    (let rng = Rng.create 4242 in
     let users = 6 in
     let duration = 2.0 *. 86400.0 in
     let nfiles = 20 in
     let initial_files =
       Array.init nfiles (fun f ->
           {
             Op.file_id = f;
             file_path = Printf.sprintf "/vol/d%d/f%d" (f mod 4) f;
             file_bytes = (4 + Rng.int rng 9) * Op.block_size;
           })
     in
     let next_file = ref nfiles in
     let ops = ref [] in
     let nops = ref 0 in
     let t = ref 0.0 in
     while !t < duration -. 600.0 do
       (* One burst: a user touches one file's blocks back to back. *)
       let user = Rng.int rng users in
       let f = Rng.int rng nfiles in
       let fi = initial_files.(f) in
       let nblocks = Op.blocks_of_bytes fi.Op.file_bytes in
       let len = 1 + Rng.int rng nblocks in
       let roll = Rng.int rng 10 in
       for b = 0 to len - 1 do
         let time = !t +. (float_of_int b *. 0.05) in
         let op =
           if roll < 6 then
             { Op.time; user; path = fi.Op.file_path; file = fi.Op.file_id;
               block = b; kind = Op.Read; bytes = Op.block_size }
           else if roll < 9 then
             { Op.time; user; path = fi.Op.file_path; file = fi.Op.file_id;
               block = b; kind = Op.Write; bytes = Op.block_size }
           else begin
             (* A fresh file grows block by block. *)
             let id = !next_file in
             { Op.time; user; path = Printf.sprintf "/vol/new/f%d" id;
               file = id; kind = Op.Create; block = b; bytes = Op.block_size }
           end
         in
         ops := op :: !ops;
         incr nops
       done;
       if roll >= 9 then incr next_file;
       t := !t +. 120.0 +. Rng.float rng 180.0
     done;
     let ops = Array.of_list (List.rev !ops) in
     let trace =
       { Op.name = "pin"; duration; users; ops; initial_files }
     in
     Op.validate trace;
     trace)

let pin_failures =
  lazy
    (let trace = Lazy.force pin_trace in
     Failure.generate ~rng:(Rng.create 777) ~n:24 ~duration:trace.Op.duration ())

let fmt v = Printf.sprintf "%.9g" v

let avail_setup ~replicas ~redundancy ~mode =
  let trace = Lazy.force pin_trace in
  let failures = Lazy.force pin_failures in
  let params =
    { (Availability.default_params ~mode) with
      Availability.replicas; redundancy }
  in
  let replay = Availability.replay ~trace ~failures ~mode ~seed:11 ~params () in
  let st = Availability.task_unavailability ~trace ~replay ~inter:5.0 in
  Printf.sprintf "tasks=%d failed=%d unavail=%s nodes/task=%s"
    st.Availability.tasks st.Availability.failed
    (fmt st.Availability.unavailability)
    (fmt st.Availability.mean_nodes_per_task)

(* Expected strings captured from the pre-arena implementation. *)
let expected_avail =
  [
    ("replication r=3 d2", 3, Cluster.Replication, Keymap.D2,
     "tasks=820 failed=1 unavail=0.0012195122 nodes/task=1.22317073");
    ("replication r=3 traditional", 3, Cluster.Replication, Keymap.Traditional,
     "tasks=820 failed=2 unavail=0.00243902439 nodes/task=3.97804878");
    ("erasure 2-of-4 d2", 4, Cluster.Erasure 2, Keymap.D2,
     "tasks=820 failed=3 unavail=0.00365853659 nodes/task=1.21219512");
    ("erasure 3-of-6 d2", 6, Cluster.Erasure 3, Keymap.D2,
     "tasks=820 failed=0 unavail=0 nodes/task=1.22317073");
    ("erasure 2-of-6 d2", 6, Cluster.Erasure 2, Keymap.D2,
     "tasks=820 failed=0 unavail=0 nodes/task=1.22317073");
  ]

let test_availability_pins () =
  List.iter
    (fun (label, replicas, redundancy, mode, expected) ->
      let got = avail_setup ~replicas ~redundancy ~mode in
      Alcotest.(check string) label expected got)
    expected_avail

(* Fig-9-style pin: lookup messages per node, the cache miss rate and
   the raw in-window hit/miss counts of a small performance pass, for
   all three key orderings.  The hit/miss counts pin the lookup
   cache's per-probe decisions exactly, so a cache rewrite cannot
   silently shift the §5 curves while leaving the means plausible. *)
let perf_pin_config ?(cache_ttl = 4500.0) () =
  {
    (Perf.default_config ~nodes:40 ~bandwidth:1_500_000.0) with
    Perf.base_nodes = 40;
    cache_ttl;
    seed = 11;
  }

let perf_setup ~mode =
  let trace = Lazy.force pin_trace in
  let pass = Perf.run_pass ~trace ~mode ~config:(perf_pin_config ()) in
  Printf.sprintf "lookups/node=%s miss=%s hits=%d misses=%d"
    (fmt pass.Perf.lookup_msgs_per_node)
    (fmt pass.Perf.miss_rate) pass.Perf.window_hits pass.Perf.window_misses

let expected_perf =
  [
    ("fig9 traditional", Keymap.Traditional,
     "lookups/node=4.35 miss=0.615277778 hits=32 misses=50");
    ("fig9 traditional-file", Keymap.Traditional_file,
     "lookups/node=0.775 miss=0.170833333 hits=71 misses=11");
    ("fig9 d2", Keymap.D2, "lookups/node=1.475 miss=0.284722222 hits=65 misses=17");
  ]

let test_perf_pins () =
  List.iter
    (fun (label, mode, expected) ->
      let got = perf_setup ~mode in
      Alcotest.(check string) label expected got)
    expected_perf

(* Ablation-cache-ttl-style pin: the TTL sweep's miss rates (plus raw
   hit/miss counts) for the traditional and D2 orderings. *)
let cache_ttl_setup ~ttl =
  let trace = Lazy.force pin_trace in
  let get mode =
    let pass =
      Perf.run_pass ~trace ~mode ~config:(perf_pin_config ~cache_ttl:ttl ())
    in
    Printf.sprintf "%s h=%d m=%d" (fmt pass.Perf.miss_rate) pass.Perf.window_hits
      pass.Perf.window_misses
  in
  Printf.sprintf "trad[%s] d2[%s]" (get Keymap.Traditional) (get Keymap.D2)

let expected_cache_ttl =
  [
    ("cache_ttl 600", 600.0, "trad[0.852777778 h=15 m=67] d2[0.298611111 h=63 m=19]");
    ("cache_ttl 4500", 4500.0, "trad[0.615277778 h=32 m=50] d2[0.284722222 h=65 m=17]");
    ("cache_ttl 24000", 24000.0, "trad[0.252777778 h=57 m=25] d2[0.343055556 h=63 m=19]");
  ]

let test_cache_ttl_pins () =
  List.iter
    (fun (label, ttl, expected) ->
      let got = cache_ttl_setup ~ttl in
      Alcotest.(check string) label expected got)
    expected_cache_ttl

let () =
  Alcotest.run "d2_replay_pin"
    [
      ( "pins",
        [
          Alcotest.test_case "availability four setups" `Quick test_availability_pins;
          Alcotest.test_case "fig9-style perf pass" `Quick test_perf_pins;
          Alcotest.test_case "cache-ttl sweep" `Quick test_cache_ttl_pins;
        ] );
    ]
