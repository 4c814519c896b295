module Op = D2_trace.Op
module Plan = D2_trace.Plan
module Cluster = D2_store.Cluster
module Engine = D2_simnet.Engine
module Rng = D2_util.Rng
module Vec = D2_util.Vec

type setup = D2 | Traditional | Traditional_file | Traditional_merc

let setup_name = function
  | D2 -> "d2"
  | Traditional -> "traditional"
  | Traditional_file -> "traditional-file"
  | Traditional_merc -> "traditional+merc"

let all_setups = [ D2; Traditional; Traditional_file; Traditional_merc ]

let mode_of = function
  | D2 -> Keymap.D2
  | Traditional | Traditional_merc -> Keymap.Traditional
  | Traditional_file -> Keymap.Traditional_file

let balanced = function D2 | Traditional_merc -> true | Traditional | Traditional_file -> false

type params = {
  nodes : int;
  seed : int;
  warmup : float;
  sample_interval : float;
  replicas : int;
  use_pointers : bool;
}

let default_params ~nodes ~seed =
  {
    nodes;
    seed;
    warmup = 3.0 *. 86400.0;
    sample_interval = 3600.0;
    replicas = 3;
    use_pointers = true;
  }

type result = {
  r_setup : setup;
  samples : (float * float) array;
  max_over_mean : float;
  daily_written_mb : float array;
  daily_removed_mb : float array;
  daily_migrated_mb : float array;
  total_at_day_start_mb : float array;
  balancer_moves : int;
}

let mb x = x /. 1.0e6

(* Replays via the trace's compiled {!D2_trace.Plan}: columnar fields
   and keys precomputed once per trace, shared across setups. *)
let run ~trace ~setup ~params:p =
  let rng = Rng.create p.seed in
  let engine = Engine.create () in
  let config =
    {
      Cluster.default_config with
      Cluster.replicas = p.replicas;
      use_pointers = p.use_pointers;
    }
  in
  let system =
    System.create ~engine ~rng:(Rng.split rng) ~nodes:p.nodes ~config ()
  in
  let plan = Plan.of_trace trace in
  (* Only mutations touch the keymap in this replay (reads are
     placement no-ops here), so slot assignment must skip them. *)
  let keys = Plan.replay_keys plan ~mode:(mode_of setup) ~policy:Plan.Writes_only in
  System.load_initial_plan system plan keys;
  let cluster = System.cluster system in
  let horizon = p.warmup +. trace.Op.duration +. 1.0 in
  let balancer =
    if balanced setup then
      Some (System.attach_balancer system ~rng:(Rng.split rng) ~until:horizon ())
    else None
  in
  Engine.run engine ~until:p.warmup;
  (* Imbalance sampling during the replay. *)
  let samples = Vec.create () in
  let mom = D2_util.Stats.Online.create () in
  Engine.every engine ~period:p.sample_interval ~until:horizon (fun () ->
      let t = Engine.now engine -. p.warmup in
      Vec.push samples (t, System.imbalance system);
      D2_util.Stats.Online.add mom (System.max_over_mean_load system));
  (* Daily counter snapshots. *)
  let ndays = int_of_float (ceil (trace.Op.duration /. 86400.0)) in
  let day_written = Array.make (ndays + 1) 0.0 in
  let day_removed = Array.make (ndays + 1) 0.0 in
  let day_migrated = Array.make (ndays + 1) 0.0 in
  let day_total = Array.make (ndays + 1) 0.0 in
  let snapshot d () =
    day_written.(d) <- Cluster.written_bytes cluster;
    day_removed.(d) <- Cluster.removed_bytes cluster;
    day_migrated.(d) <- Cluster.migration_bytes cluster;
    (* Logical live data: baseline + user writes - removals. *)
    day_total.(d) <-
      Cluster.written_bytes cluster -. Cluster.removed_bytes cluster
  in
  for d = 0 to ndays do
    let at = p.warmup +. Float.min (float_of_int d *. 86400.0) trace.Op.duration in
    Engine.schedule engine ~at (snapshot d)
  done;
  let times = plan.Plan.times in
  let kinds = plan.Plan.kinds in
  for i = 0 to plan.Plan.n - 1 do
    Engine.run engine ~until:(p.warmup +. times.(i));
    if kinds.(i) <> Plan.kind_read then System.apply_plan_op system plan keys i
  done;
  Engine.run engine ~until:horizon;
  let daily delta =
    Array.init ndays (fun d -> mb (delta (d + 1) -. delta d))
  in
  {
    r_setup = setup;
    samples = Vec.to_array samples;
    max_over_mean = D2_util.Stats.Online.mean mom;
    daily_written_mb = daily (fun d -> day_written.(d));
    daily_removed_mb = daily (fun d -> day_removed.(d));
    daily_migrated_mb = daily (fun d -> day_migrated.(d));
    total_at_day_start_mb = Array.init ndays (fun d -> mb day_total.(d));
    balancer_moves =
      (match balancer with
      | Some b -> (D2_balance.Balancer.stats b).D2_balance.Balancer.moves
      | None -> 0);
  }
