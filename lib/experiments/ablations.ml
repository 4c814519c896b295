(* Ablation benches for the design choices DESIGN.md calls out:
   block pointers (§6), rank-finger routing, the lookup-cache TTL
   (§5), and the replication factor (§8.2's r=4 note). *)

module Report = D2_util.Report
module Keymap = D2_trace.Keymap
module Balance_sim = D2_core.Balance_sim
module Availability = D2_core.Availability
module Perf = D2_core.Perf
module Ring = D2_dht.Ring
module Key = D2_keyspace.Key
module Rng = D2_util.Rng

(* Pointers on/off: total migration traffic for the Harvard replay.
   Without pointers every cascaded split moves blocks twice (§6,
   Fig. 6). *)
let pointers scale =
  let trace = Data.harvard scale in
  let run use_pointers =
    let params =
      {
        (Balance_sim.default_params ~nodes:(Config.balance_nodes scale)
           ~seed:Config.master_seed)
        with
        Balance_sim.use_pointers;
      }
    in
    Balance_sim.run ~trace ~setup:Balance_sim.D2 ~params
  in
  let with_ptr = run true and without_ptr = run false in
  let total arr = Array.fold_left ( +. ) 0.0 arr in
  let r =
    Report.create ~title:"Ablation: block pointers during load balancing"
      ~columns:[ "variant"; "migration (MB)"; "writes (MB)"; "L/W"; "moves" ]
  in
  let row name (res : Balance_sim.result) =
    let l = total res.Balance_sim.daily_migrated_mb in
    let w = total res.Balance_sim.daily_written_mb in
    Report.add_row r
      [
        name;
        Report.fmt_float ~decimals:1 l;
        Report.fmt_float ~decimals:1 w;
        (if w > 0.0 then Report.fmt_float ~decimals:2 (l /. w) else "-");
        string_of_int res.Balance_sim.balancer_moves;
      ]
  in
  row "pointers (D2)" with_ptr;
  row "no pointers" without_ptr;
  [ r ]

(* Routing-policy comparison over real per-node link tables: Chord
   fingers vs Mercury/Symphony harmonic links vs successor walking,
   plus the analytic finger model the simulators use. *)
let routing _scale =
  let module Router = D2_dht.Router in
  let r =
    Report.create ~title:"Ablation: routing link policies (mean hops over real tables)"
      ~columns:
        [ "nodes"; "fingers"; "harmonic-k"; "successor-only"; "analytic model"; "log2 n" ]
  in
  List.iter
    (fun n ->
      let rng = Rng.create 77 in
      let ring = Ring.create () in
      for i = 0 to n - 1 do
        Ring.add ring ~id:(Key.random rng) ~node:i
      done;
      let k = max 2 (int_of_float (log (float_of_int n) /. log 2.0)) in
      let routers =
        List.map
          (fun p -> Router.create ~ring ~policy:p ~rng:(Rng.copy rng))
          [ Router.Fingers; Router.Harmonic k; Router.Successor_only ]
      in
      let trials = if n > 2000 then 500 else 2000 in
      let sums = Array.make (List.length routers) 0 in
      let model = ref 0 in
      for _ = 1 to trials do
        let src = Rng.int rng n in
        let key = Key.random rng in
        List.iteri (fun i router -> sums.(i) <- sums.(i) + Router.hops router ~src ~key) routers;
        model := !model + Ring.route_hops ring ~src ~key
      done;
      let mean i = float_of_int sums.(i) /. float_of_int trials in
      Report.add_row r
        [
          string_of_int n;
          Report.fmt_float ~decimals:2 (mean 0);
          Report.fmt_float ~decimals:2 (mean 1);
          Report.fmt_float ~decimals:1 (mean 2);
          Report.fmt_float ~decimals:2 (float_of_int !model /. float_of_int trials);
          Report.fmt_float ~decimals:1 (log (float_of_int n) /. log 2.0);
        ])
    [ 100; 500; 1000; 5000 ];
  [ r ]

(* Request-load hot spots (§6): D2 balances *storage* with Mercury and
   relies on retrieval caches along lookup paths to balance *request*
   load.  A hot directory sits on one replica group; clients hammer it
   with zipf-selected block reads.  Without caching the replica group
   serves everything; with path caching the load spreads. *)
let hotspot _scale =
  let module Router = D2_dht.Router in
  let module Cluster = D2_store.Cluster in
  let module Engine = D2_simnet.Engine in
  let module Block_cache = D2_cache.Block_cache in
  let module Zipf = D2_util.Zipf in
  let nodes = 100 in
  let engine = Engine.create () in
  let rng = Rng.create (Config.master_seed + 500) in
  let ids = Array.init nodes (fun _ -> Key.random rng) in
  let cluster = Cluster.create ~engine ~config:Cluster.default_config ~ids in
  (* One hot directory: 256 blocks, all on one replica group under D2. *)
  let km = D2_trace.Keymap.create D2_trace.Keymap.D2 ~volume:"hot" in
  let hot_keys =
    Array.init 256 (fun b -> D2_trace.Keymap.key_of km ~path:"/hot/data" ~block:b)
  in
  Array.iter (fun key -> Cluster.put cluster ~key ~size:8192 ()) hot_keys;
  let ring = Cluster.ring cluster in
  let router = Router.create ~ring ~policy:Router.Fingers ~rng:(Rng.split rng) in
  let zipf = Zipf.create ~n:256 ~s:0.9 in
  let requests = 20_000 in
  let run ~with_caches =
    let served = Array.make nodes 0 in
    let caches =
      Array.init nodes (fun _ -> Block_cache.bytes_cache ~capacity:(128 * 8192))
    in
    let req_rng = Rng.create (Config.master_seed + 501) in
    for _ = 1 to requests do
      let client = Rng.int req_rng nodes in
      let key = hot_keys.(Zipf.sample zipf req_rng) in
      (* CFS-style: the client's own cache first, then the first node
         along the lookup path with a cached copy, else a replica; the
         whole reply path caches the block. *)
      if with_caches && Block_cache.cache_mem caches.(client) key then ()
      else begin
        let path = Router.route router ~src:client ~key in
        let server =
          if with_caches then
            List.find_opt (fun n -> Block_cache.cache_mem caches.(n) key) path
          else None
        in
        (match server with
        | Some n -> served.(n) <- served.(n) + 8192
        | None ->
            let holders = Cluster.physical_holders cluster ~key in
            let n = List.nth holders (Rng.int req_rng (List.length holders)) in
            served.(n) <- served.(n) + 8192);
        if with_caches then begin
          Block_cache.cache_store caches.(client) key ~size:8192;
          List.iter
            (fun n -> Block_cache.cache_store caches.(n) key ~size:8192)
            path
        end
      end
    done;
    let loads = Array.map float_of_int served in
    let mean = D2_util.Stats.mean loads in
    let maxl = Array.fold_left Float.max 0.0 loads in
    let serving = Array.fold_left (fun a s -> if s > 0 then a + 1 else a) 0 served in
    let group_share =
      let group = Cluster.physical_holders cluster ~key:hot_keys.(0) in
      let g = List.fold_left (fun a n -> a + served.(n)) 0 group in
      let total = Array.fold_left ( + ) 0 served in
      if total = 0 then 0.0 else float_of_int g /. float_of_int total
    in
    (maxl /. mean, serving, group_share, Array.fold_left ( + ) 0 served / 8192)
  in
  let nc_ratio, nc_nodes, nc_share, nc_fetch = run ~with_caches:false in
  let c_ratio, c_nodes, c_share, c_fetch = run ~with_caches:true in
  let r =
    Report.create
      ~title:"Ablation: request-load hot spot with retrieval caches (§6)"
      ~columns:
        [ "configuration"; "max/mean served"; "nodes serving"; "replica-group share";
          "remote fetches" ]
  in
  let row label (ratio, ns, share, fetches) =
    Report.add_row r
      [
        label;
        Report.fmt_float ~decimals:1 ratio;
        string_of_int ns;
        Report.fmt_pct share;
        string_of_int fetches;
      ]
  in
  row "replica group only" (nc_ratio, nc_nodes, nc_share, nc_fetch);
  row "with path caches" (c_ratio, c_nodes, c_share, c_fetch);
  [ r ]

(* STP-style transport (§9.3): does giving the traditional DHT a
   shared-congestion-window transport erase D2's advantage?  The paper
   argues it would not substantially improve the traditional DHT's
   parallel downloads in this regime — and cannot help availability or
   lookup traffic at all. *)
let stp scale =
  let trace = Data.harvard scale in
  let nodes = List.hd (List.rev (Config.perf_sizes scale)) in
  let r =
    Report.create
      ~title:
        (Printf.sprintf "Ablation: per-pair TCP vs STP-style shared window (%d nodes)"
           nodes)
      ~columns:[ "transport"; "seq speedup vs trad"; "para speedup vs trad" ]
  in
  List.iter
    (fun shared ->
      let config =
        {
          (Perf.default_config ~nodes ~bandwidth:1_500_000.0) with
          Perf.base_nodes = Config.perf_base_nodes scale;
          shared_window = shared;
          seed = Config.master_seed + 300;
        }
      in
      let pt = Perf.run_pass ~trace ~mode:Keymap.Traditional ~config in
      let pd = Perf.run_pass ~trace ~mode:Keymap.D2 ~config in
      let seq = (Perf.speedup ~baseline:pt ~improved:pd ~which:`Seq).Perf.overall in
      let para = (Perf.speedup ~baseline:pt ~improved:pd ~which:`Para).Perf.overall in
      Report.add_row r
        [
          (if shared then "STP shared window" else "TCP per pair (paper)");
          Report.fmt_float ~decimals:2 seq;
          Report.fmt_float ~decimals:2 para;
        ])
    [ false; true ];
  [ r ]

(* Lookup-cache TTL sweep: D2 and traditional miss rates. *)
let cache_ttl scale =
  let trace = Data.harvard scale in
  let nodes = List.hd (Config.perf_sizes scale) in
  let r =
    Report.create ~title:"Ablation: lookup-cache TTL vs miss rate"
      ~columns:[ "ttl"; "traditional miss"; "d2 miss" ]
  in
  List.iter
    (fun ttl ->
      let get mode =
        let config =
          {
            (Perf.default_config ~nodes ~bandwidth:1_500_000.0) with
            Perf.base_nodes = Config.perf_base_nodes scale;
            cache_ttl = ttl;
            seed = Config.master_seed + 300;
          }
        in
        (Perf.run_pass ~trace ~mode ~config).Perf.miss_rate
      in
      Report.add_row r
        [
          Printf.sprintf "%.0f min" (ttl /. 60.0);
          Report.fmt_pct (get Keymap.Traditional);
          Report.fmt_pct (get Keymap.D2);
        ])
    [ 600.0; 4500.0; 24000.0 ];
  [ r ]

(* Hybrid replica placement (§11 future work): one of r replicas at
   the key's hashed ring position.  Under correlated outages that kill
   a contiguous run of ring nodes, the hashed copy usually survives,
   so D2's residual unavailability drops further — at the cost of one
   extra node per task's replica set. *)
let hybrid scale =
  let trace = Data.harvard scale in
  let failures = Data.failures scale ~trial:0 in
  let r =
    Report.create
      ~title:"Extension: hybrid locality+hashed replica placement (D2, inter=5s)"
      ~columns:[ "placement"; "unavailability"; "nodes/task" ]
  in
  List.iter
    (fun hybrid_on ->
      let params =
        { (Availability.default_params ~mode:Keymap.D2) with
          Availability.hybrid_replicas = hybrid_on }
      in
      let replay =
        Availability.replay ~trace ~failures ~mode:Keymap.D2
          ~seed:(Config.master_seed + 200) ~params ()
      in
      let st = Availability.task_unavailability ~trace ~replay ~inter:5.0 in
      Report.add_row r
        [
          (if hybrid_on then "hybrid (1 hashed copy)" else "pure locality (paper)");
          Report.fmt_sci st.Availability.unavailability;
          Report.fmt_float ~decimals:1 st.Availability.mean_nodes_per_task;
        ])
    [ false; true ];
  [ r ]

(* Redundancy scheme (§3): the paper claims defragmentation's
   availability gain is similar whether blocks are replicated or
   erasure-coded.  Compare D2-vs-traditional improvement under
   whole-block replication (3 copies, 3x storage) and 2-of-4 coding
   (4 fragments, 2x storage). *)
let erasure scale =
  let module Cluster = D2_store.Cluster in
  let trace = Data.harvard scale in
  let failures = Data.failures scale ~trial:0 in
  let r =
    Report.create
      ~title:"Ablation: replication vs erasure coding (inter=5s)"
      ~columns:
        [ "scheme"; "storage blowup"; "traditional"; "d2"; "improvement" ]
  in
  List.iter
    (fun (label, replicas, redundancy, blowup) ->
      let get mode =
        let params =
          { (Availability.default_params ~mode) with
            Availability.replicas; redundancy }
        in
        let replay =
          Availability.replay ~trace ~failures ~mode
            ~seed:(Config.master_seed + 200) ~params ()
        in
        (Availability.task_unavailability ~trace ~replay ~inter:5.0)
          .Availability.unavailability
      in
      let t = get Keymap.Traditional and d = get Keymap.D2 in
      Report.add_row r
        [
          label;
          blowup;
          Report.fmt_sci t;
          Report.fmt_sci d;
          (if d > 0.0 then Printf.sprintf "%.1fx" (t /. d) else "inf");
        ])
    [
      ("replication r=3", 3, Cluster.Replication, "3.0x");
      ("erasure 2-of-4", 4, Cluster.Erasure 2, "2.0x");
      ("erasure 3-of-6", 6, Cluster.Erasure 3, "2.0x");
      ("erasure 2-of-6", 6, Cluster.Erasure 2, "3.0x");
    ];
  [ r ]

(* Replication factor: unavailability with r=3 vs r=4 (§8.2 notes D2
   had no failures at all with 4 replicas). *)
let replicas scale =
  let trace = Data.harvard scale in
  let failures = Data.failures scale ~trial:0 in
  let r =
    Report.create ~title:"Ablation: replication factor vs task unavailability (inter=5s)"
      ~columns:[ "replicas"; "traditional"; "d2" ]
  in
  List.iter
    (fun nreplicas ->
      let get mode =
        let params =
          { (Availability.default_params ~mode) with Availability.replicas = nreplicas }
        in
        let replay =
          Availability.replay ~trace ~failures ~mode
            ~seed:(Config.master_seed + 200) ~params ()
        in
        (Availability.task_unavailability ~trace ~replay ~inter:5.0)
          .Availability.unavailability
      in
      Report.add_row r
        [
          string_of_int nreplicas;
          Report.fmt_sci (get Keymap.Traditional);
          Report.fmt_sci (get Keymap.D2);
        ])
    [ 2; 3; 4 ];
  [ r ]
