module Key = D2_keyspace.Key
module Cluster = D2_store.Cluster
module Plan = D2_trace.Plan
module Rng = D2_util.Rng
module Stats = D2_util.Stats

(* Each live block remembers the key it was stored under, so deletes
   drop exactly what was put without re-deriving keys from the path. *)
type file_state = { blocks : (int, int * Key.t) Hashtbl.t }

type t = {
  cluster : Cluster.t;
  files : (int, file_state) Hashtbl.t;
  mutable baseline : float;
}

let create ~engine ~rng ~nodes ?(config = Cluster.default_config) () =
  if nodes <= 0 then invalid_arg "System.create: nodes must be positive";
  let ids = Array.init nodes (fun _ -> Key.random rng) in
  let cluster = Cluster.create ~engine ~config ~ids in
  { cluster; files = Hashtbl.create 1024; baseline = 0.0 }

let cluster t = t.cluster
let baseline_written t = t.baseline

let file_state t ~file =
  match Hashtbl.find_opt t.files file with
  | Some fs -> fs
  | None ->
      let fs = { blocks = Hashtbl.create 8 } in
      Hashtbl.replace t.files file fs;
      fs

let put_block t ~file ~block ~size ~key =
  let fs = file_state t ~file in
  Hashtbl.replace fs.blocks block (size, key);
  Cluster.put t.cluster ~key ~size ()

let delete_file t ~file =
  match Hashtbl.find_opt t.files file with
  | None -> ()
  | Some fs ->
      Hashtbl.iter
        (fun _block (_size, key) -> Cluster.remove t.cluster ~key ())
        fs.blocks;
      Hashtbl.remove t.files file

let load_initial_plan t (plan : Plan.t) (keys : Plan.keyset) =
  let before = Cluster.written_bytes t.cluster in
  let nf = Array.length plan.Plan.init_files in
  for f = 0 to nf - 1 do
    let file = plan.Plan.init_files.(f) in
    let off = plan.Plan.init_offsets.(f) in
    for j = off to plan.Plan.init_offsets.(f + 1) - 1 do
      put_block t ~file ~block:(j - off) ~size:plan.Plan.init_sizes.(j)
        ~key:keys.Plan.init_keys.(j)
    done
  done;
  t.baseline <- t.baseline +. (Cluster.written_bytes t.cluster -. before)

(* One op's storage effect from the plan's columns: an unboxed array
   read plus the precomputed key — no record churn, no keymap probe. *)
let apply_plan_op t (plan : Plan.t) (keys : Plan.keyset) i =
  let k = plan.Plan.kinds.(i) in
  if k = Plan.kind_write || k = Plan.kind_create then
    put_block t ~file:plan.Plan.files.(i) ~block:plan.Plan.blocks.(i)
      ~size:plan.Plan.bytes.(i) ~key:keys.Plan.op_keys.(i)
  else if k = Plan.kind_delete then delete_file t ~file:plan.Plan.files.(i)

let file_blocks t ~file =
  match Hashtbl.find_opt t.files file with
  | None -> []
  | Some fs ->
      List.sort compare
        (Hashtbl.fold (fun b (s, _key) acc -> (b, s) :: acc) fs.blocks [])

let attach_balancer t ~rng ?config ~until () =
  D2_balance.Balancer.attach ~cluster:t.cluster ~rng ?config ~until ()

let up_loads t =
  let n = Cluster.node_count t.cluster in
  let loads = ref [] in
  for i = 0 to n - 1 do
    let s = Cluster.node_stats t.cluster i in
    if s.Cluster.up then loads := float_of_int s.Cluster.physical_bytes :: !loads
  done;
  Array.of_list !loads

let imbalance t = Stats.normalized_stddev (up_loads t)

let max_over_mean_load t =
  let loads = up_loads t in
  let m = Stats.mean loads in
  if m = 0.0 then 0.0
  else Array.fold_left Float.max neg_infinity loads /. m
