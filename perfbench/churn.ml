(* mem_churn: a deterministic in-process world of 64 D2 nodes on the
   synthetic WAN topology, with 16 clients (one per trace user) and a
   seeded churn schedule: every 30 virtual seconds one live node is
   killed and a fresh node joins in its place.

   Everything runs on the [Transport_mem] virtual clock, so every count
   and every latency percentile repeats exactly for a given seed (and
   window length); only the CPU it costs varies.  The topology is the
   environment and stays fixed, and so does the trace; the seed drives
   the keys' namespace, the joiners' ring ids and the kill schedule. *)

module Key = D2_keyspace.Key
module Rng = D2_util.Rng
module Engine = D2_simnet.Engine
module Topology = D2_simnet.Topology
module Mem = D2_net.Transport_mem
module Bootstrap = D2_net.Bootstrap
module Ring = D2_dht.Ring
module Samples = Common.Samples

let n_nodes = 64
let n_clients = 16
let window = 4
let replicas = 3
let kill_every = 30.0

(* Virtual seconds of measured window per requested second.  The world
   runs faster than that here (about 35 virtual s per wall s), so the
   window's wall time stays inside the requested seconds. *)
let virtual_per_second = 20.0
let settle = 30.0
let quantum = 0.002

let node_config =
  {
    D2_net.Node.replicas;
    probe_interval = 0.5;
    rpc_timeout = 2.0;
    repair_interval = 1.0;
  }

let horizon ~seconds = virtual_per_second *. seconds
let max_joins ~seconds = int_of_float (horizon ~seconds /. kill_every) + 1

(* {1 Inputs} *)

type inputs = { per_user : Closed_loop.op array array; preload : Closed_loop.op array array }

(* The trace is fixed (d2load's trace seed, 16 users); the seed names
   the volume, so every hashed key and its owner change with it. *)
let inputs ~seed =
  let trace = Tcp.harvard ~users:n_clients ~mb:8 in
  let keymap =
    D2_trace.Keymap.create D2_trace.Keymap.Traditional
      ~volume:(Printf.sprintf "/perfbench/%d" seed)
  in
  let per_user = Array.make n_clients [] in
  Array.iter
    (fun (o : D2_trace.Op.op) ->
      let u = o.user mod n_clients in
      per_user.(u) <- Tcp.loop_op keymap o :: per_user.(u))
    trace.D2_trace.Op.ops;
  let per_user = Array.map (fun l -> Array.of_list (List.rev l)) per_user in
  let seen = Key.Table.create 4096 in
  { per_user; preload = Array.map (Tcp.first_writes ~seen) per_user }

(* {1 The world, over any transport wrapping [Transport_mem]} *)

type result = {
  setup_wall : float;
  tally : Closed_loop.tally;
  window_wall : float;
  window_cpu : float;
  window_virtual : float;
  kills : int;
  joins : int;
  replicas_checked : int;
  replica_mismatches : int;
  under_replicated : int;
  live_keys : int;
  live_bytes : int;
  distinct : int;
  layers : Layers.window option;
  pre : Closed_loop.tally;
}

module Make (T : D2_net.Transport.S) = struct
  module Node = D2_net.Node.Make (T)
  module Client = D2_net.Client.Make (T)
  module D = Closed_loop.Make (Client)

  (* [wrap ~role ep] turns a [Transport_mem] endpoint into a [T.t];
     [traced] gives the endpoint's counters when tracing. *)
  let run ~seed ~seconds ~(wrap : role:Traced.role -> Mem.t -> T.t)
      ~(traced : T.t -> Traced.stats option) =
    let t_setup = Common.now () in
    let joins_cap = max_joins ~seconds in
    let n_topo = n_nodes + joins_cap + n_clients in
    let engine = Engine.create () in
    let topology = Topology.create ~rng:(Rng.create 0x7090) ~n:n_topo () in
    let net = Mem.create_net ~engine ~topology ~loss:0.0 ~seed:0x11 () in
    let is_node i = i < n_nodes + joins_cap in
    Traced.is_node_peer := is_node;
    let nodes : (int, Node.t) Hashtbl.t = Hashtbl.create 128 in
    let ids : (int, Key.t) Hashtbl.t = Hashtbl.create 128 in
    let live = ref [] in
    let add_node i id ~peers =
      let ep = wrap ~role:Traced.Node (Mem.endpoint net ~node:i) in
      let n = Node.create ep ~config:node_config ~id ~peers () in
      Hashtbl.replace nodes i n;
      Hashtbl.replace ids i id;
      live := i :: !live;
      Node.serve n
    in
    let peers = Bootstrap.peers n_nodes in
    List.iter (fun (i, id) -> add_node i id ~peers) peers;
    Engine.run engine ~until:3.0;
    let client_eps =
      Array.init n_clients (fun k -> wrap ~role:Traced.Client (Mem.endpoint net ~node:(n_nodes + joins_cap + k)))
    in
    let clients =
      Array.map
        (fun ep ->
          Client.create ep ~replicas ~quorum_r:2 ~quorum_w:2 ~rpc_timeout:2.0
            ~retries:8
            ~seeds:(List.init n_nodes Fun.id)
            ())
        client_eps
    in
    let hooks =
      let st k = traced client_eps.(k) in
      {
        Closed_loop.issue =
          (fun k ~op f ->
            match st k with
            | Some s -> Traced.span s Traced.k_issue ~op f
            | None -> f ());
        op_done =
          (fun k ~op ~start ->
            match st k with Some s -> Traced.op_span s ~op ~start | None -> ());
      }
    in
    let payload = Common.Payload.create ~seed in
    let d =
      D.create ~hooks ~clients ~window ~clock:(fun () -> Engine.now engine) ~payload ()
    in
    let step () =
      Array.iter (fun c -> Client.poll c ~timeout:0.0) clients;
      Engine.run engine ~until:(Engine.now engine +. quantum)
    in
    let inp = inputs ~seed in
    let cursor = Array.make n_clients 0 in
    let from_array arrs ci =
      let a = arrs.(ci) in
      if cursor.(ci) >= Array.length a then None
      else begin
        cursor.(ci) <- cursor.(ci) + 1;
        Some a.(cursor.(ci) - 1)
      end
    in
    let cycle ci =
      let a = inp.per_user.(ci) in
      if Array.length a = 0 then None
      else begin
        let o = a.(cursor.(ci) mod Array.length a) in
        cursor.(ci) <- cursor.(ci) + 1;
        Some o
      end
    in
    (* Set-up: preload every key, then one warm-up pass of each user's
       stream. *)
    let pre = Closed_loop.new_tally () in
    D.run d pre ~next:(from_array inp.preload) ~stop:(fun () -> false) ~step;
    Array.fill cursor 0 n_clients 0;
    let warm = Array.map Array.length inp.per_user in
    D.run d pre
      ~next:(fun ci -> if cursor.(ci) >= warm.(ci) then None else cycle ci)
      ~stop:(fun () -> false)
      ~step;
    let setup_wall = Common.now () -. t_setup in
    (* The set-up time, and the rest of the run for the caller to
       start: a set-up timed only for [setup_s] never runs it. *)
    ( setup_wall,
      fun () ->
        (* The churn schedule over the window. *)
        let crng = Rng.create (seed lxor 0xc4a2) in
        let kills = ref 0 and joins = ref 0 in
        let t_open = Engine.now engine in
        let t_end = t_open +. horizon ~seconds in
        let rec churn_at t =
          if t < t_end then
            ignore
              (Engine.schedule engine ~at:t (fun () ->
                   let alive = List.sort compare !live in
                   let victim = List.nth alive (Rng.int crng (List.length alive)) in
                   Mem.kill net victim;
                   Node.stop (Hashtbl.find nodes victim);
                   live := List.filter (( <> ) victim) !live;
                   incr kills;
                   if !joins < joins_cap then begin
                     let i = n_nodes + !joins in
                     incr joins;
                     let id = Key.random crng in
                     let peers =
                       List.map (fun j -> (j, Hashtbl.find ids j)) (List.sort compare !live)
                     in
                     add_node i id ~peers
                   end;
                   churn_at (t +. kill_every)))
        in
        churn_at (t_open +. kill_every);
        (* Layer counters at the window's opening. *)
        let client_counts c =
          Layers.client_counts ~lookup_rpcs:(Client.lookup_rpcs c)
            ~failures:(Client.failures c) (Client.cache c)
        in
        let node_counts n =
          Layers.node_counts ~requests:(Node.requests_served n)
            ~repair:(Node.repair_stats n) ~vmap:(Node.vmap n)
        in
        let c0 = Array.map client_counts clients in
        let n0 = Hashtbl.fold (fun i n acc -> (i, node_counts n) :: acc) nodes [] in
        let snap0 = Traced.snapshot_all () in
        let tally = Closed_loop.new_tally () in
        Array.fill cursor 0 n_clients 0;
        let cpu0 = Common.cpu_seconds () and w0 = Common.now () in
        Traced.open_window ();
        D.run d tally ~next:cycle ~stop:(fun () -> Engine.now engine >= t_end) ~step;
        Traced.close_window ();
        let window_wall = Common.now () -. w0 in
        let window_cpu = Common.cpu_seconds () -. cpu0 in
        let window_virtual = Engine.now engine -. t_open in
        let layers =
          if traced client_eps.(0) = None then None
          else begin
            let traced_d = Traced.deltas snap0 in
            let clients =
              Array.to_list
                (Array.mapi (fun k c -> Layers.sub_client c0.(k) (client_counts c)) clients)
            in
            (* Nodes that joined during the window count whole; a killed
               node's version map no longer counts. *)
            let nodes_d =
              Hashtbl.fold
                (fun i n acc ->
                  let b = node_counts n in
                  let d =
                    match List.assoc_opt i n0 with
                    | None -> b
                    | Some a -> Layers.sub_node a b
                  in
                  let d = if List.mem i !live then d else { d with vmap_entries = 0 } in
                  d :: acc)
                nodes []
            in
            Some
              {
                Layers.ops = tally.ops;
                gets = tally.gets;
                puts = tally.puts;
                wall_s = window_wall;
                clock_s = window_virtual;
                clients;
                nodes = nodes_d;
                stores = [];
                live_bytes = D.live_bytes d;
                traced = traced_d;
              }
          end
        in
        (* Let repair settle, then audit every live key's replica set on the
           survivors' ring: every replica that holds the key must hold the
           last acked bytes. *)
        Engine.run engine ~until:(Engine.now engine +. settle);
        let ring = Ring.create () in
        List.iter (fun i -> Ring.add ring ~id:(Hashtbl.find ids i) ~node:i) !live;
        let checked = ref 0 and mismatches = ref 0 and under = ref 0 in
        Key.Table.iter
          (fun key (e : Common.expect) ->
            if e.live then begin
              let holders =
                List.filter_map
                  (fun i ->
                    D2_net.Blockstore.get (Node.store (Hashtbl.find nodes i)) ~key)
                  (Ring.successors ring key replicas)
              in
              if List.length holders < replicas then incr under;
              List.iter
                (fun data ->
                  incr checked;
                  if not (Common.Payload.check payload data ~slot:e.slot ~ver:e.ver ~len:e.len)
                  then incr mismatches)
                holders
            end)
          (D.expect d);
        Hashtbl.iter (fun _ n -> Node.stop n) nodes;
        {
          setup_wall;
          tally;
          window_wall;
          window_cpu;
          window_virtual;
          kills = !kills;
          joins = !joins;
          replicas_checked = !checked;
          replica_mismatches = !mismatches;
          under_replicated = !under;
          live_keys = D.live_keys d;
          live_bytes = D.live_bytes d;
          distinct = Key.Table.length (D.expect d);
          layers;
          pre;
        } )
end

module Plain = Make (Mem)
module TM = Traced.Make (Mem)
module Hosted = Make (TM)

(* A world, set up; apply the function to run its window.  A world
   holds ~1 GB (every link's frame reader reserves [Wire.max_frame]),
   so the previous one is compacted away before the next boots. *)
let plain_world ~seed ~seconds =
  Gc.compact ();
  Plain.run ~seed ~seconds ~wrap:(fun ~role:_ ep -> ep) ~traced:(fun _ -> None)

let run_traced_world ~seed ~seconds =
  Gc.compact ();
  let _, measure =
    Hosted.run ~seed ~seconds
      ~wrap:(fun ~role ep -> TM.wrap ep ~role)
      ~traced:(fun ep -> Some (TM.stats ep))
  in
  measure ()

let ms x = x *. 1000.0

let print_world r =
  Closed_loop.traffic_lines ~label:"preload + warm-up" r.pre ~distinct:r.distinct
    ~live_bytes:r.live_bytes;
  Closed_loop.traffic_lines ~label:"window" r.tally ~distinct:r.distinct
    ~live_bytes:r.live_bytes;
  Printf.printf
    "  churn: %d kills and %d joins in %.1f virtual s (one every %.0f s); %d \
     nodes live at the end\n"
    r.kills r.joins r.window_virtual kill_every
    (n_nodes + r.joins - r.kills);
  Printf.printf
    "  replica audit after %.0f s settling: %d live keys, %d replicas \
     checked, %d mismatched, %d keys below r=%d\n"
    settle r.live_keys r.replicas_checked r.replica_mismatches
    r.under_replicated replicas

let failures r = r.tally.failed + r.tally.verify_errors + r.replica_mismatches
let correct r =
  r.pre.verify_errors = 0 && r.tally.verify_errors = 0 && r.replica_mismatches = 0

let e2e_metrics r =
  let g = Samples.sorted r.tally.get_lat and p = Samples.sorted r.tally.put_lat in
  let m = Common.metric in
  let n a = Printf.sprintf "n=%d, virtual clock" (Array.length a) in
  [
    (m "setup_s" "s" r.setup_wall, "boot, preload, warm-up");
    ( m "ops_s" "1/s" (Common.ratio_f (float_of_int r.tally.ops) r.window_cpu),
      Printf.sprintf "%d ops per %.3f CPU s, all nodes and clients" r.tally.ops
        r.window_cpu );
    (m "wan_get_p50_ms" "ms" (ms (Common.percentile g 50.0)), n g);
    (m "wan_get_p99_ms" "ms" (ms (Common.percentile g 99.0)), n g);
    (m "wan_put_p50_ms" "ms" (ms (Common.percentile p 50.0)), n p);
    (m "wan_put_p99_ms" "ms" (ms (Common.percentile p 99.0)), n p);
    (m "rss_mb" "MB" (Common.self_hwm_mb ()), "this process's VmHWM");
  ]

let setups = 3

(* The window runs on the first world; [setups - 1] more are set up
   after it, for [setup_s] only. *)
let run ~seed ~seconds =
  let r =
    let _, measure = plain_world ~seed ~seconds in
    measure ()
  in
  let times =
    r.setup_wall
    :: List.init (setups - 1) (fun _ -> fst (plain_world ~seed ~seconds))
  in
  let setup = Common.median times in
  Printf.printf "mem_churn: %d nodes, %d clients x %d in flight, r=%d, quorum 2/2\n"
    n_nodes n_clients window replicas;
  Printf.printf "  setup times: %s s (each a fresh world)\n"
    (String.concat ", " (List.map (Printf.sprintf "%.3f") times));
  print_world r;
  let metrics =
    List.map
      (fun (mt, b) -> if mt.Common.name = "setup_s" then ({ mt with value = setup }, b) else (mt, b))
      (e2e_metrics r)
  in
  List.iter (fun (mt, b) -> Common.show ~base:b mt) metrics;
  Common.show
    ~base:(Printf.sprintf "%d failed + %d verify errors / %d ops" r.tally.failed
             r.tally.verify_errors r.tally.ops)
    (Common.metric "fail_ratio" "ratio" (Common.ratio (failures r) (max 1 r.tally.ops)));
  let enough = Samples.count r.tally.get_lat >= 1000 && Samples.count r.tally.put_lat >= 1000 in
  if not enough then
    Printf.printf "  ERROR: fewer than 1000 samples per op type in the window\n";
  (correct r && enough, r.tally.ops, failures r, List.map fst metrics)

let run_traced ~seed ~seconds =
  let plain =
    let _, measure = plain_world ~seed ~seconds in
    measure ()
  in
  let untraced = Common.ratio_f (float_of_int plain.tally.ops) plain.window_cpu in
  let r = run_traced_world ~seed ~seconds in
  let traced = Common.ratio_f (float_of_int r.tally.ops) r.window_cpu in
  Printf.printf "mem_churn (traced)\n";
  print_world r;
  let w = Option.get r.layers in
  Layers.print_tags w;
  Common.mkdir_p Common.run_dir;
  let spans = Filename.concat Common.run_dir "spans-mem_churn.tsv" in
  Traced.dump spans;
  Printf.printf "  spans written to %s\n" spans;
  let all =
    Layers.metrics w
    @ [
        Common.metric "trace.ops_s_untraced" "1/s" untraced;
        Common.metric "trace.ops_s_traced" "1/s" traced;
        Common.metric "trace.overhead" "ratio" (Common.ratio_f (untraced -. traced) untraced);
      ]
  in
  let base = Printf.sprintf "base: %d ops, %.1f virtual s" r.tally.ops r.window_virtual in
  List.iter (Common.show ~base) all;
  (correct r && correct plain, r.tally.ops + plain.tally.ops, failures r + failures plain, all)
