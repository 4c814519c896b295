module Op = D2_trace.Op
module Plan = D2_trace.Plan
module Task = D2_trace.Task
module Key = D2_keyspace.Key
module Cluster = D2_store.Cluster
module Ring = D2_dht.Ring
module Engine = D2_simnet.Engine
module Topology = D2_simnet.Topology
module Tcp = D2_simnet.Tcp
module Rng = D2_util.Rng
module Stats = D2_util.Stats
module Lookup_cache = D2_cache.Lookup_cache
module Block_cache = D2_cache.Block_cache

type config = {
  nodes : int;
  access_bandwidth : float;
  replicas : int;
  windows : int;
  window_length : float;
  max_in_flight : int;
  cache_ttl : float;
  warmup : float;
  base_nodes : int;
  shared_window : bool;
  (** STP-style transport (§9.3 discussion): one congestion window per
      client shared across all destinations, instead of per-(client,
      server) TCP state — avoids per-flow slow-start at the cost of
      false sharing.  Default false (plain TCP, the paper's testbed). *)
  seed : int;
}

let default_config ~nodes ~bandwidth =
  {
    nodes;
    access_bandwidth = bandwidth;
    replicas = 4;
    windows = 8;
    window_length = 900.0;
    max_in_flight = 15;
    cache_ttl = 4500.0;
    warmup = 1.0 *. 86400.0;
    base_nodes = 200;
    shared_window = false;
    seed = 42;
  }

(* Connection-table key: per-pair TCP or per-client shared window. *)
let conn_key cfg ~client ~server =
  if cfg.shared_window then (client, -1) else (client, server)

type group_perf = { g_user : int; seq : float; para : float; fetched : int }

type pass = {
  p_mode : Keymap.mode;
  p_config : config;
  lookup_msgs_per_node : float;
  miss_rate : float;
  window_hits : int;
  window_misses : int;
  groups : (int, group_perf) Hashtbl.t;
}

(* One pending fetch inside an access group (for the para schedule). *)
type fetch_desc = { ready : float; server : int; f_bytes : int }

type group_accum = {
  ga_user : int;
  mutable seq_clock : float;  (** accumulated sequential latency *)
  mutable fetches : fetch_desc list;  (** reverse order *)
  mutable count : int;
}

let pick_windows ~rng ~cfg ~duration =
  let day = 86400.0 in
  let ndays = max 1 (min 5 (int_of_float (duration /. day))) in
  List.init cfg.windows (fun _ ->
      let d = Rng.int rng ndays in
      let start =
        (float_of_int d *. day)
        +. (9.0 *. 3600.0)
        +. Rng.float rng ((9.0 *. 3600.0) -. cfg.window_length)
      in
      (start, start +. cfg.window_length))

let in_windows windows time =
  List.exists (fun (a, b) -> time >= a && time < b) windows

(* Para makespan: list scheduling with [slots] concurrent transfers and
   per-server link serialization; per-(client,server) TCP state.
   Slots are interchangeable, so only the multiset of their free times
   matters: a min-heap replaces the per-fetch linear scan over
   [max_in_flight] slots. *)
let para_makespan ~cfg ~conns ~client ~topo ~fetches =
  let slots = D2_util.Heap.create ~cmp:Float.compare in
  for _ = 1 to cfg.max_in_flight do
    D2_util.Heap.push slots 0.0
  done;
  let server_free : (int, float) Hashtbl.t = Hashtbl.create 16 in
  let finish = ref 0.0 in
  List.iter
    (fun fd ->
      (* Take the earliest-free slot. *)
      let slot_free = D2_util.Heap.pop_exn slots in
      let ready = Float.max fd.ready slot_free in
      let sfree =
        match Hashtbl.find_opt server_free fd.server with Some v -> v | None -> 0.0
      in
      let start = Float.max ready sfree in
      let ck = conn_key cfg ~client ~server:fd.server in
      let conn =
        match Hashtbl.find_opt conns ck with
        | Some c -> c
        | None ->
            let c = Tcp.fresh_conn () in
            Hashtbl.replace conns ck c;
            c
      in
      let rtt = Topology.rtt topo client fd.server in
      let dur =
        Tcp.transfer_time conn ~now:start ~rtt ~bandwidth:cfg.access_bandwidth
          ~bytes:fd.f_bytes
      in
      let stop = start +. dur in
      D2_util.Heap.push slots stop;
      Hashtbl.replace server_free fd.server stop;
      if stop > !finish then finish := stop)
    (List.rev fetches);
  !finish

let run_pass ~trace ~mode ~config:cfg =
  (* Draws that must match across modes (windows, clients, topology)
     come from [shared_rng]; mode-dependent draws from [mode_rng]. *)
  let shared_rng = Rng.create cfg.seed in
  let mode_rng = Rng.create (cfg.seed + (Hashtbl.hash (Keymap.mode_name mode) land 0xffff)) in
  let engine = Engine.create () in
  let cluster_config =
    { Cluster.default_config with Cluster.replicas = cfg.replicas }
  in
  let system =
    System.create ~engine ~rng:(Rng.split mode_rng) ~nodes:cfg.nodes
      ~config:cluster_config ()
  in
  let cluster = System.cluster system in
  let ring = Cluster.ring cluster in
  let plan = Plan.of_trace trace in
  let keys = Plan.replay_keys plan ~mode ~policy:Plan.Reads_and_writes in
  System.load_initial_plan system plan keys;
  (* Volume-replicate the data set to scale with system size (§9.1). *)
  let copies = max 1 (cfg.nodes / cfg.base_nodes) in
  for j = 1 to copies - 1 do
    let copy_keys =
      Plan.init_keys plan ~mode ~volume:(Printf.sprintf "vol@%d" j)
    in
    Array.iter
      (fun key -> Cluster.put cluster ~key ~size:Op.block_size ())
      copy_keys
  done;
  let horizon = cfg.warmup +. trace.Op.duration +. 1.0 in
  if mode = Keymap.D2 then
    ignore (System.attach_balancer system ~rng:(Rng.split mode_rng) ~until:horizon ());
  Engine.run engine ~until:cfg.warmup;
  let topo =
    Topology.create ~rng:(Rng.copy shared_rng) ~n:cfg.nodes ()
  in
  let windows_rng = Rng.split shared_rng in
  let windows = pick_windows ~rng:windows_rng ~cfg ~duration:trace.Op.duration in
  let clients = Array.init trace.Op.users (fun _ -> Rng.int shared_rng cfg.nodes) in
  let mean_rtt = Topology.mean_rtt topo in
  let lookup_caches =
    Array.init trace.Op.users (fun _ -> Lookup_cache.create ~ttl:cfg.cache_ttl ())
  in
  let warm_caches = Array.init trace.Op.users (fun _ -> Block_cache.create ()) in
  let conns_seq : (int * int, Tcp.conn) Hashtbl.t = Hashtbl.create 1024 in
  let conns_para : (int * int, Tcp.conn) Hashtbl.t = Hashtbl.create 1024 in
  let _, labels = Task.access_groups_labeled trace in
  let accums : (int, group_accum) Hashtbl.t = Hashtbl.create 256 in
  let results : (int, group_perf) Hashtbl.t = Hashtbl.create 256 in
  let lookup_msgs = ref 0 in
  let hits = Array.make trace.Op.users 0 in
  let misses = Array.make trace.Op.users 0 in
  let current_group = Array.make trace.Op.users (-1) in
  let server_rng = Rng.split mode_rng in
  (* Scratch holder buffer: one per pass instead of a list plus an
     array per read (same nodes, same order, same RNG draws). *)
  let hbuf = Array.make cfg.nodes 0 in
  let finalize gid =
    match Hashtbl.find_opt accums gid with
    | None -> ()
    | Some ga ->
        let client = clients.(ga.ga_user) in
        let para =
          if ga.fetches = [] then 0.0
          else para_makespan ~cfg ~conns:conns_para ~client ~topo ~fetches:ga.fetches
        in
        Hashtbl.replace results gid
          { g_user = ga.ga_user; seq = ga.seq_clock; para; fetched = ga.count };
        Hashtbl.remove accums gid
  in
  let times = plan.Plan.times in
  let kinds = plan.Plan.kinds in
  let user_col = plan.Plan.users in
  let bytes_col = plan.Plan.bytes in
  let op_keys = keys.Plan.op_keys in
  for i = 0 to plan.Plan.n - 1 do
    let now = times.(i) in
    Engine.run engine ~until:(cfg.warmup +. now);
    let u = user_col.(i) in
    let measured = in_windows windows now in
    (* Group boundary detection per user. *)
    let gid = labels.(i) in
    if current_group.(u) <> gid then begin
      if current_group.(u) >= 0 then finalize current_group.(u);
      current_group.(u) <- gid;
      if measured then
        Hashtbl.replace accums gid
          { ga_user = u; seq_clock = 0.0; fetches = []; count = 0 }
    end;
    if kinds.(i) <> Plan.kind_read then System.apply_plan_op system plan keys i
    else begin
          let key = op_keys.(i) in
          let client = clients.(u) in
          let warm_hit = Block_cache.touch warm_caches.(u) ~now key in
          if not warm_hit then begin
            let hcount = Cluster.physical_holders_into cluster ~key hbuf in
            let holder_mem n =
              let rec go i = i < hcount && (hbuf.(i) = n || go (i + 1)) in
              go 0
            in
            if hcount > 0 then begin
              let cache = lookup_caches.(u) in
              (* Resolve the owner; decide whether a DHT lookup was
                 needed and what it cost. *)
              let cached = Lookup_cache.find cache ~now key in
              let stale = cached >= 0 && not (holder_mem cached) in
              let lookup_lat =
                if cached >= 0 && not stale then begin
                  if measured then hits.(u) <- hits.(u) + 1;
                  0.0
                end
                else begin
                    if measured then misses.(u) <- misses.(u) + 1;
                    let owner =
                      match Cluster.find_owner cluster ~key with
                      | -1 -> hbuf.(0)
                      | n -> n
                    in
                    let hops = Ring.route_hops ring ~src:client ~key in
                    if measured then lookup_msgs := !lookup_msgs + hops + 1;
                    (if Ring.mem ring ~node:owner then
                       let lo = Ring.predecessor_id ring ~node:owner in
                       let hi = Ring.id_of ring ~node:owner in
                       Lookup_cache.insert cache ~now ~lo ~hi ~node:owner);
                    let base =
                      (float_of_int hops *. mean_rtt /. 2.0)
                      +. (Topology.rtt topo client owner /. 2.0)
                    in
                    (* A stale cache entry costs a wasted round trip
                       before falling back to the lookup (§5). *)
                    if stale then base +. Topology.rtt topo client cached
                    else base
                end
              in
              let server = hbuf.(Rng.int server_rng hcount) in
              if measured then begin
                match Hashtbl.find_opt accums gid with
                | None -> ()
                | Some ga ->
                    (* Sequential: lookup then download, back to back. *)
                    let ck = conn_key cfg ~client ~server in
                    let conn =
                      match Hashtbl.find_opt conns_seq ck with
                      | Some c -> c
                      | None ->
                          let c = Tcp.fresh_conn () in
                          Hashtbl.replace conns_seq ck c;
                          c
                    in
                    let rtt = Topology.rtt topo client server in
                    let dur =
                      Tcp.transfer_time conn ~now:(now +. ga.seq_clock) ~rtt
                        ~bandwidth:cfg.access_bandwidth ~bytes:bytes_col.(i)
                    in
                    ga.seq_clock <- ga.seq_clock +. lookup_lat +. dur;
                    ga.fetches <-
                      { ready = lookup_lat; server; f_bytes = bytes_col.(i) }
                      :: ga.fetches;
                    ga.count <- ga.count + 1
              end
            end
          end
    end
  done;
  Array.iter (fun gid -> if gid >= 0 then finalize gid) current_group;
  let user_rates = ref [] in
  for u = 0 to trace.Op.users - 1 do
    let total = hits.(u) + misses.(u) in
    if total > 0 then
      user_rates := (float_of_int misses.(u) /. float_of_int total) :: !user_rates
  done;
  {
    p_mode = mode;
    p_config = cfg;
    lookup_msgs_per_node = float_of_int !lookup_msgs /. float_of_int cfg.nodes;
    miss_rate = Stats.mean (Array.of_list !user_rates);
    window_hits = Array.fold_left ( + ) 0 hits;
    window_misses = Array.fold_left ( + ) 0 misses;
    groups = results;
  }

type speedup = {
  overall : float;
  per_user : (int * float) array;
  groups_compared : int;
}

let pick which (g : group_perf) = match which with `Seq -> g.seq | `Para -> g.para

let speedup ~baseline ~improved ~which =
  let per_user_ratios : (int, float list ref) Hashtbl.t = Hashtbl.create 64 in
  let compared = ref 0 in
  Hashtbl.iter
    (fun gid (gb : group_perf) ->
      match Hashtbl.find_opt improved.groups gid with
      | None -> ()
      | Some gi ->
          let lb = pick which gb and li = pick which gi in
          if lb > 0.0 && li > 0.0 then begin
            incr compared;
            let r =
              match Hashtbl.find_opt per_user_ratios gb.g_user with
              | Some r -> r
              | None ->
                  let r = ref [] in
                  Hashtbl.replace per_user_ratios gb.g_user r;
                  r
            in
            r := (lb /. li) :: !r
          end)
    baseline.groups;
  let per_user =
    Hashtbl.fold
      (fun u r acc -> (u, Stats.geometric_mean (Array.of_list !r)) :: acc)
      per_user_ratios []
  in
  let per_user = Array.of_list per_user in
  Array.sort (fun (a, _) (b, _) -> compare a b) per_user;
  let overall =
    if Array.length per_user = 0 then 1.0
    else Stats.geometric_mean (Array.map snd per_user)
  in
  { overall; per_user; groups_compared = !compared }

let latency_pairs ~baseline ~improved ~which =
  let acc = ref [] in
  Hashtbl.iter
    (fun gid gb ->
      match Hashtbl.find_opt improved.groups gid with
      | None -> ()
      | Some gi ->
          let lb = pick which gb and li = pick which gi in
          if lb > 0.0 && li > 0.0 then acc := (lb, li) :: !acc)
    baseline.groups;
  Array.of_list !acc
