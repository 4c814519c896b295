(* Anti-entropy bandwidth vs availability: the same deterministic
   kill schedule against a live mem-transport cluster, swept over
   repair intervals (plus a repair-off control).  Each row prices a
   setting: what the digest walks and block transfers cost in frames
   and bytes, against how many replica groups sit below r when the
   dust settles and what fraction of blocks a quorum-2 read can still
   serve.  Repair off shows the cost of doing nothing — every group
   that lost a replica stays degraded; shorter intervals buy faster
   convergence with more digest traffic. *)

module Key = D2_keyspace.Key
module Rng = D2_util.Rng
module Report = D2_util.Report
module Ring = D2_dht.Ring
module World = D2_net.Mem_world
module Node = World.Node
module Client = World.Client

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
  let config =
    {
      D2_net.Node.replicas;
      probe_interval = 0.5;
      rpc_timeout = 2.0;
      repair_interval = interval;
    }
  in
  let w = World.boot ~config ~n () in
  let client =
    Client.create (World.endpoint w) ~replicas ~rpc_timeout:5.0 ~retries:8
      ~seeds:(List.init n Fun.id) ()
  in
  let krng = Rng.create 0xbeef in
  let keys = Array.init blocks (fun _ -> Key.random krng) in
  Array.iter
    (fun key ->
      match Client.put client ~key ~data:("blk:" ^ Key.to_string key) with
      | `Ok _ -> ()
      | `Failed -> failwith "repair experiment: load put failed")
    keys;
  (* Both victims are picked on the full ring, before either dies. *)
  let full = World.live_ring w in
  let a = Ring.successor full keys.(0) in
  let b =
    let rec pick i =
      let cand = Ring.successor full keys.(i) in
      if cand <> a then cand else pick (i + 1)
    in
    pick 1
  in
  World.kill w a;
  World.run w 20.0;
  World.kill w b;
  World.run w horizon;
  let degraded = ref 0 and fully = ref 0 and q2 = ref 0 in
  Array.iter
    (fun key ->
      let holders = List.length (World.copies w key) in
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
    (World.nodes w);
  World.stop w;
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
