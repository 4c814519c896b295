(* Watching the load balancer work (§6, Figs. 5-6).

   Locality-preserving keys mean a freshly inserted directory tree
   lands on ONE node.  This example inserts a large volume into an
   idle 32-node cluster and prints the load distribution as the
   Karger-Ruhl balancer splits the hot spot, with block pointers
   deferring (and often avoiding) the physical copies.

   Run with: dune exec examples/rebalancing.exe *)

module Key = D2_keyspace.Key
module Engine = D2_simnet.Engine
module Cluster = D2_store.Cluster
module Balancer = D2_balance.Balancer
module Keymap = D2_trace.Keymap
module Rng = D2_util.Rng

let show cluster label =
  let n = Cluster.node_count cluster in
  let loads =
    Array.init n (fun i ->
        (Cluster.node_stats cluster i).Cluster.physical_bytes / 1024)
  in
  let nonzero = Array.fold_left (fun a l -> if l > 0 then a + 1 else a) 0 loads in
  let maxload = Array.fold_left max 0 loads in
  let total = Array.fold_left ( + ) 0 loads in
  Printf.printf "%-12s %2d/%d nodes hold data, max %5d KB, mean %5d KB, migrated %5.1f MB\n"
    label nonzero n maxload (total / n)
    (Cluster.migration_bytes cluster /. 1.0e6)

let () =
  let engine = Engine.create () in
  let rng = Rng.create 12 in
  let ids = Array.init 32 (fun _ -> Key.random rng) in
  let config =
    { Cluster.default_config with Cluster.migration_bandwidth = 10_000_000.0 }
  in
  let cluster = Cluster.create ~engine ~config ~ids in
  (* Insert a 64 MB volume with D2 keys: everything hits one node. *)
  let km = Keymap.create Keymap.D2 ~volume:"bulk" in
  for f = 0 to 511 do
    let path = Printf.sprintf "/data/set%02d/file%03d" (f / 32) f in
    for b = 0 to 15 do
      Cluster.put cluster ~key:(Keymap.key_of km ~path ~block:b) ~size:8192 ()
    done
  done;
  show cluster "inserted:";
  (* Let the balancer run; print the distribution every simulated hour. *)
  let horizon = 12.0 *. 3600.0 in
  let b = Balancer.attach ~cluster ~rng:(Rng.split rng) ~until:horizon () in
  for hour = 1 to 12 do
    Engine.run engine ~until:(float_of_int hour *. 3600.0);
    if hour mod 2 = 0 then show cluster (Printf.sprintf "after %2dh:" hour)
  done;
  let st = Balancer.stats b in
  Printf.printf "balancer: %d probes, %d ID changes\n" st.Balancer.probes st.Balancer.moves;
  Cluster.check_invariants cluster
