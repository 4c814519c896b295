(* Anti-entropy bandwidth vs availability: the same deterministic
   kill schedule against a live mem-transport cluster, swept over
   repair intervals (plus a repair-off control).  Each row prices a
   setting: what the digest walks and block transfers cost in frames
   and bytes, against how many replica groups sit below r when the
   dust settles and what fraction of blocks a quorum-2 read can still
   serve.  Repair off shows the cost of doing nothing — every group
   that lost a replica stays degraded; shorter intervals buy faster
   convergence with more digest traffic. *)

module Engine = D2_simnet.Engine
module Topology = D2_simnet.Topology
module Key = D2_keyspace.Key
module Rng = D2_util.Rng
module Report = D2_util.Report
module Ring = D2_dht.Ring
module Mem = D2_net.Transport_mem
module Node = D2_net.Node.Make (D2_net.Transport_mem)
module Client = D2_net.Client.Make (D2_net.Transport_mem)
module Bootstrap = D2_net.Bootstrap
module Blockstore = D2_net.Blockstore

(* Swept settings: the control plus three-and-a-half octaves of
   interval; seconds are virtual, so paper scale costs nothing real. *)
let intervals = [ 0.0; 4.0; 2.0; 1.0; 0.5 ]

let replicas = 3
let horizon = 60.0

type row = {
  interval : float;
  sessions : int;
  frames : int;
  bytes : int;
  moved : int; (* copies installed by pull or push *)
  degraded : int; (* replica groups below r *)
  full_pct : float; (* blocks at full replication *)
  q2_pct : float; (* blocks a quorum-2 read can serve *)
}

(* One scripted run: load the cluster, kill two block owners twenty
   virtual seconds apart, let the horizon pass, then audit every
   block's replica group on the survivor ring. *)
let run_one scale ~interval =
  let n = Config.repair_nodes scale in
  let blocks = Config.repair_blocks scale in
  let engine = Engine.create () in
  let topology = Topology.create ~rng:(Rng.create 0x7090) ~n:(n + 1) () in
  let net = Mem.create_net ~engine ~topology ~loss:0.0 ~seed:0x11 () in
  let peers = Bootstrap.peers n in
  let config =
    {
      D2_net.Node.replicas;
      probe_interval = 0.5;
      rpc_timeout = 2.0;
      repair_interval = interval;
    }
  in
  let nodes =
    List.map
      (fun (i, id) ->
        Node.create (Mem.endpoint net ~node:i) ~config ~id ~peers ())
      peers
    |> Array.of_list
  in
  Array.iter Node.serve nodes;
  Engine.run engine ~until:3.0;
  let client =
    Client.create (Mem.endpoint net ~node:n) ~replicas ~rpc_timeout:5.0
      ~retries:8 ~seeds:(List.init n Fun.id) ()
  in
  let krng = Rng.create 0xbeef in
  let keys = Array.init blocks (fun _ -> Key.random krng) in
  Array.iter
    (fun key ->
      match Client.put client ~key ~data:("blk:" ^ Key.to_string key) with
      | `Ok _ -> ()
      | `Failed -> failwith "repair experiment: load put failed")
    keys;
  let full = Ring.create () in
  List.iter (fun (i, id) -> Ring.add full ~id ~node:i) peers;
  let a = Ring.successor full keys.(0) in
  let b =
    let rec pick i =
      let cand = Ring.successor full keys.(i) in
      if cand <> a then cand else pick (i + 1)
    in
    pick 1
  in
  Mem.kill net a;
  Engine.run engine ~until:(Engine.now engine +. 20.0);
  Mem.kill net b;
  Engine.run engine ~until:(Engine.now engine +. horizon);
  let dead = [ a; b ] in
  let live = Ring.create () in
  List.iter
    (fun (i, id) -> if not (List.mem i dead) then Ring.add live ~id ~node:i)
    peers;
  let degraded = ref 0 and fully = ref 0 and q2 = ref 0 in
  Array.iter
    (fun key ->
      let holders =
        Ring.successors live key replicas
        |> List.filter (fun i ->
               Blockstore.get (Node.store nodes.(i)) ~key <> None)
        |> List.length
      in
      if holders < replicas then incr degraded else incr fully;
      if holders >= 2 then incr q2)
    keys;
  let sessions = ref 0 and frames = ref 0 and bytes = ref 0 and moved = ref 0 in
  Array.iter
    (fun node ->
      let s = Node.repair_stats node in
      sessions := !sessions + s.D2_net.Node.sessions;
      frames := !frames + s.D2_net.Node.repair_frames;
      bytes := !bytes + s.D2_net.Node.repair_bytes;
      moved := !moved + s.D2_net.Node.pushed + s.D2_net.Node.pulled)
    nodes;
  Array.iter Node.stop nodes;
  let pct x = 100.0 *. float_of_int x /. float_of_int blocks in
  {
    interval;
    sessions = !sessions;
    frames = !frames;
    bytes = !bytes;
    moved = !moved;
    degraded = !degraded;
    full_pct = pct !fully;
    q2_pct = pct !q2;
  }

let run scale =
  let n = Config.repair_nodes scale in
  let blocks = Config.repair_blocks scale in
  let r =
    Report.create
      ~title:
        (Printf.sprintf
           "Repair bandwidth vs availability: %d nodes, %d blocks, 2 kills, \
            %.0f s horizon"
           n blocks horizon)
      ~columns:
        [
          "interval s";
          "sessions";
          "frames";
          "kB";
          "copies moved";
          "groups<r";
          "full %";
          "q2 avail %";
        ]
  in
  List.iter
    (fun interval ->
      let row = run_one scale ~interval in
      Report.add_row r
        [
          (if interval = 0.0 then "off" else Report.fmt_float ~decimals:1 interval);
          string_of_int row.sessions;
          string_of_int row.frames;
          Report.fmt_float ~decimals:1 (float_of_int row.bytes /. 1024.0);
          string_of_int row.moved;
          string_of_int row.degraded;
          Report.fmt_float ~decimals:1 row.full_pct;
          Report.fmt_float ~decimals:1 row.q2_pct;
        ])
    intervals;
  [ r ]
