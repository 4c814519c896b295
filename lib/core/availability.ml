module Op = D2_trace.Op
module Plan = D2_trace.Plan
module Failure = D2_trace.Failure
module Task = D2_trace.Task
module Cluster = D2_store.Cluster
module Engine = D2_simnet.Engine
module Rng = D2_util.Rng

type params = {
  replicas : int;
  redundancy : Cluster.redundancy;
  warmup : float;
  use_balancer : bool;
  regen_hours_per_node : float;
  hybrid_replicas : bool;
}

let default_params ~mode =
  {
    replicas = 3;
    redundancy = Cluster.Replication;
    warmup = 3.0 *. 86400.0;
    use_balancer = (mode = Keymap.D2);
    regen_hours_per_node = 3.0;
    hybrid_replicas = false;
  }

type replay = {
  op_ok : bool array;
  op_node : int array;
  trials_mode : Keymap.mode;
}

let replay ~trace ~failures ~mode ~seed ?params () =
  let p = match params with Some p -> p | None -> default_params ~mode in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let nodes = failures.Failure.n in
  (* Bandwidth such that one node's share of the data regenerates in
     [regen_hours_per_node] simulated hours. *)
  let total_bytes =
    float_of_int (Op.total_initial_bytes trace) *. float_of_int p.replicas
  in
  let per_node = total_bytes /. float_of_int nodes in
  let bandwidth =
    Float.max 1.0 (per_node *. 8.0 /. (p.regen_hours_per_node *. 3600.0))
  in
  let config =
    {
      Cluster.default_config with
      Cluster.replicas = p.replicas;
      redundancy = p.redundancy;
      migration_bandwidth = bandwidth;
      hybrid_replicas = p.hybrid_replicas;
    }
  in
  let system =
    System.create ~engine ~rng:(Rng.split rng) ~nodes ~config ()
  in
  let plan = Plan.of_trace trace in
  (* This replay keys every read too (to test block availability), so
     reads participate in D2 slot assignment. *)
  let keys = Plan.replay_keys plan ~mode ~policy:Plan.Reads_and_writes in
  System.load_initial_plan system plan keys;
  let horizon = p.warmup +. trace.Op.duration +. 1.0 in
  if p.use_balancer then
    ignore (System.attach_balancer system ~rng:(Rng.split rng) ~until:horizon ());
  (* Warm up: balancing (if any) stabilizes positions before failures
     or accesses begin. *)
  Engine.run engine ~until:p.warmup;
  (* Schedule the failure trace relative to the end of warmup. *)
  let cluster = System.cluster system in
  Array.iter
    (fun (e : Failure.event) ->
      Engine.schedule engine ~at:(p.warmup +. e.Failure.time) (fun () ->
          if e.Failure.up then Cluster.recover cluster ~node:e.Failure.node
          else Cluster.fail cluster ~node:e.Failure.node))
    failures.Failure.events;
  let n_ops = plan.Plan.n in
  let op_ok = Array.make n_ops true in
  let op_node = Array.make n_ops (-1) in
  let times = plan.Plan.times in
  let kinds = plan.Plan.kinds in
  let op_keys = keys.Plan.op_keys in
  for i = 0 to n_ops - 1 do
    Engine.run engine ~until:(p.warmup +. times.(i));
    let k = kinds.(i) in
    if k = Plan.kind_read then begin
      let key = op_keys.(i) in
      (* A block that no longer exists (rare trace-edge races with
         delayed removal) is not a node-unavailability failure. *)
      op_ok.(i) <- Cluster.available cluster ~key || not (Cluster.mem cluster ~key);
      op_node.(i) <- Cluster.find_owner cluster ~key
    end
    else begin
      System.apply_plan_op system plan keys i;
      if k = Plan.kind_write || k = Plan.kind_create then
        op_node.(i) <- Cluster.find_owner cluster ~key:op_keys.(i)
    end
  done;
  { op_ok; op_node; trials_mode = mode }

type task_stats = {
  tasks : int;
  failed : int;
  unavailability : float;
  mean_nodes_per_task : float;
  per_user_unavailability : (int * float) array;
}

let task_unavailability ~trace ~replay ~inter =
  let tasks, labels = Task.segment_labeled trace ~inter () in
  let ntasks = Array.length tasks in
  let task_failed = Array.make ntasks false in
  let task_nodes = Array.make ntasks 0 in
  (* (task, node) pairs already counted, as unboxed [node * ntasks +
     tsk] ints — no tuple allocation per op in this pass. *)
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 4096 in
  Array.iteri
    (fun i (o : Op.op) ->
      let tsk = labels.(i) in
      if tsk >= 0 then begin
        if (not replay.op_ok.(i)) && o.Op.kind = Op.Read then task_failed.(tsk) <- true;
        let node = replay.op_node.(i) in
        if node >= 0 && not (Hashtbl.mem seen ((node * ntasks) + tsk)) then begin
          Hashtbl.add seen ((node * ntasks) + tsk) ();
          task_nodes.(tsk) <- task_nodes.(tsk) + 1
        end
      end)
    trace.Op.ops;
  let failed = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 task_failed in
  let per_user_tasks = Array.make trace.Op.users 0 in
  let per_user_failed = Array.make trace.Op.users 0 in
  Array.iteri
    (fun tsk (t : Task.t) ->
      per_user_tasks.(t.Task.user) <- per_user_tasks.(t.Task.user) + 1;
      if task_failed.(tsk) then
        per_user_failed.(t.Task.user) <- per_user_failed.(t.Task.user) + 1)
    tasks;
  let per_user =
    Array.of_list
      (List.filter_map
         (fun u ->
           if per_user_tasks.(u) = 0 then None
           else
             Some (u, float_of_int per_user_failed.(u) /. float_of_int per_user_tasks.(u)))
         (List.init trace.Op.users (fun u -> u)))
  in
  Array.sort (fun (_, a) (_, b) -> compare b a) per_user;
  let total_nodes = Array.fold_left ( + ) 0 task_nodes in
  {
    tasks = ntasks;
    failed;
    unavailability = (if ntasks = 0 then 0.0 else float_of_int failed /. float_of_int ntasks);
    mean_nodes_per_task =
      (if ntasks = 0 then 0.0 else float_of_int total_nodes /. float_of_int ntasks);
    per_user_unavailability = per_user;
  }
