module Key = D2_keyspace.Key
module Version = D2_sync.Version
module Vmap = D2_sync.Vmap
module Ring = D2_dht.Ring
module Engine = D2_simnet.Engine

(* Read before [Node] below names the transport's instance. *)
let replicas_of (config : Node.config) = config.replicas

module Node = Node.Make (Transport_mem)
module Client = Client.Make (Transport_mem)

let topology_seed = 0x7090
let settle = 3.0
let spare_slots = 4

type t = {
  engine : Engine.t;
  net : Transport_mem.net;
  replicas : int;
  eps : Transport_mem.t array;
  nodes : Node.t array;
  live : Ring.t;
  mutable next_slot : int;
}

let boot ~config ~n ?stores () =
  let mem _ = Blockstore.mem_store () in
  let stores = Option.value stores ~default:(List.init n mem) in
  let engine = Engine.create () in
  let topology =
    D2_simnet.Topology.create
      ~rng:(D2_util.Rng.create topology_seed)
      ~n:(n + spare_slots) ()
  in
  let net = Transport_mem.create_net ~engine ~topology () in
  let peers = Bootstrap.peers n in
  let eps = Array.init n (fun i -> Transport_mem.endpoint net ~node:i) in
  let nodes =
    List.map2
      (fun (i, id) store -> Node.create eps.(i) ~store ~config ~id ~peers ())
      peers stores
    |> Array.of_list
  in
  let live = Ring.create () in
  List.iter (fun (i, id) -> Ring.add live ~id ~node:i) peers;
  Array.iter Node.serve nodes;
  Engine.run engine ~until:settle;
  let replicas = replicas_of config in
  { engine; net; replicas; eps; nodes; live; next_slot = n }

let endpoint w =
  let slot = w.next_slot in
  if slot >= Array.length w.nodes + spare_slots then
    invalid_arg "Mem_world.endpoint: every client slot is bound";
  w.next_slot <- slot + 1;
  Transport_mem.endpoint w.net ~node:slot

let node_endpoint w i = w.eps.(i)
let nodes w = w.nodes
let run w seconds = Engine.run w.engine ~until:(Engine.now w.engine +. seconds)

(* A dead node's clocks stop too: a repair tick would otherwise go on
   opening sessions and counting request frames that [connect]
   refuses. *)
let kill w i =
  Transport_mem.kill w.net i;
  Node.stop w.nodes.(i);
  if Ring.mem w.live ~node:i then Ring.remove w.live ~node:i

let partition w pred = Transport_mem.set_partition w.net (Some pred)
let heal w = Transport_mem.set_partition w.net None
let live_ring w = w.live
let stop w = Array.iter Node.stop w.nodes

let version_of node key =
  match Vmap.find (Node.vmap node) ~key with
  | Some e -> e.Vmap.version
  | None -> Version.zero

let group w key = Ring.successors w.live key w.replicas

let copies w key =
  List.filter_map
    (fun i ->
      let node = w.nodes.(i) in
      Option.map
        (fun bytes -> (i, version_of node key, bytes))
        (Vmap.get (Node.vmap node) ~key))
    (group w key)

let audit w expect =
  List.concat_map
    (fun (key, data) ->
      let group = group w key in
      let want =
        match group with
        | [] -> Version.zero
        | o :: _ -> version_of w.nodes.(o) key
      in
      List.filter_map
        (fun i ->
          let version = version_of w.nodes.(i) key in
          let bytes = Vmap.get (Node.vmap w.nodes.(i)) ~key in
          if bytes = Some data && Version.equal version want then None
          else Some (key, i, version, bytes))
        group)
    expect
