(* Deterministic end-to-end runs of the networked node runtime on the
   in-process transport: a 25-node cluster under virtual time serves
   replicated puts/gets through a caching client, survives a node
   kill mid-run, and produces bit-identical cache counters across two
   identical runs (pinned below). *)

module Engine = D2_simnet.Engine
module Topology = D2_simnet.Topology
module Key = D2_keyspace.Key
module Rng = D2_util.Rng
module Ring = D2_dht.Ring
module Mem = D2_net.Transport_mem
module Node = D2_net.Node.Make (D2_net.Transport_mem)
module Client = D2_net.Client.Make (D2_net.Transport_mem)
module Lookup_cache = D2_cache.Lookup_cache
module Bootstrap = D2_net.Bootstrap

let cluster_n = 25

(* Virtual RTTs reach a few hundred ms; leave headroom so a slow pair
   never reads as a dead one. *)
let config =
  {
    D2_net.Node.replicas = 3;
    probe_interval = 0.5;
    rpc_timeout = 2.0;
    repair_interval = 0.0;
  }

let data_of key = "blk:" ^ Key.to_string key

type outcome = {
  hits : int;
  misses : int;
  lookup_rpcs : int;
  failures : int;
}

(* Every node's final blocks, as sorted (key, data) lists. *)
let store_dump nodes =
  List.map
    (fun n ->
      let live = ref [] in
      D2_sync.Vmap.iter (Node.vmap n) (fun k e ->
          if not e.D2_sync.Vmap.deleted then live := k :: !live);
      List.filter_map
        (fun key ->
          Option.map
            (fun d -> (Key.to_string key, d))
            (D2_net.Blockstore.get (Node.store n) ~key))
        !live
      |> List.sort compare)
    nodes

(* One full scripted run; everything is seeded, so two calls must
   produce identical traffic, identical counters and an identical
   final store (returned as {!store_dump}). *)
let run () =
  let engine = Engine.create () in
  let topology =
    Topology.create ~rng:(Rng.create 0x7090) ~n:(cluster_n + 1) ()
  in
  let net = Mem.create_net ~engine ~topology ~loss:0.0 ~seed:0x11 () in
  let peers = Bootstrap.peers cluster_n in
  let nodes =
    List.map
      (fun (i, id) ->
        Node.create (Mem.endpoint net ~node:i) ~config ~id ~peers ())
      peers
  in
  List.iter Node.serve nodes;
  Engine.run engine ~until:3.0;
  let client =
    Client.create
      (Mem.endpoint net ~node:cluster_n)
      ~replicas:3 ~rpc_timeout:2.0
      ~seeds:(List.init cluster_n Fun.id)
      ()
  in
  let krng = Rng.create 0xbeef in
  let keys = Array.init 120 (fun _ -> Key.random krng) in
  (* Phase 1: store everything with 3-way replication; with every node
     up and no loss, all three copies must ack. *)
  Array.iter
    (fun key ->
      match Client.put client ~key ~data:(data_of key) with
      | `Ok copies ->
          Alcotest.(check int) "put acked by all replicas" 3 copies
      | `Failed -> Alcotest.fail "put failed with the whole cluster up")
    keys;
  (* Phase 2: read the first half back (warming cached ranges that the
     kill below will partly invalidate). *)
  Array.iteri
    (fun i key ->
      if i < 60 then
        match Client.get client ~key with
        | `Found d -> Alcotest.(check string) "get" (data_of key) d
        | `Missing | `Failed -> Alcotest.fail "pre-kill read lost a block")
    keys;
  (* Kill the owner of keys.(0): it owns data, it is covered by cached
     ranges, and its successor holds the surviving replica. *)
  let reference = Ring.create () in
  List.iter (fun (n, id) -> Ring.add reference ~id ~node:n) peers;
  let victim = Ring.successor reference keys.(0) in
  Mem.kill net victim;
  (* Let failure detection converge everywhere: broken streams flag the
     kill immediately; the rotating probe covers stragglers. *)
  Engine.run engine ~until:(Engine.now engine +. 20.0);
  (* Phase 3: every block must still read correctly through the
     survivors — the victim's keys now serve from its successor. *)
  Array.iter
    (fun key ->
      match Client.get client ~key with
      | `Found d -> Alcotest.(check string) "post-kill get" (data_of key) d
      | `Missing | `Failed -> Alcotest.fail "read lost after single kill")
    keys;
  List.iter Node.stop nodes;
  let cache = Client.cache client in
  ( {
      hits = Lookup_cache.hits cache;
      misses = Lookup_cache.misses cache;
      lookup_rpcs = Client.lookup_rpcs client;
      failures = Client.failures client;
    },
    store_dump nodes )

(* Counters for the scripted run above.  A change here means the
   protocol's message or cache behaviour changed — rerun twice, and if
   both runs agree, re-pin deliberately. *)
let pinned = { hits = 279; misses = 22; lookup_rpcs = 73; failures = 0 }

let check_outcome label expected got =
  Alcotest.(check int) (label ^ ": cache hits") expected.hits got.hits;
  Alcotest.(check int) (label ^ ": cache misses") expected.misses got.misses;
  Alcotest.(check int) (label ^ ": lookup rpcs") expected.lookup_rpcs got.lookup_rpcs;
  Alcotest.(check int) (label ^ ": failures") expected.failures got.failures

(* The same scripted churn run driven through the pipelined client
   with [window] operations in flight.  Returns the outcome plus a
   full dump of every node's final blocks — pipelining must change
   throughput, never state: the dump has to be identical at any
   window depth, and window 1 must reproduce the synchronous run's
   pinned counters exactly. *)
let run_pipelined window =
  let engine = Engine.create () in
  let topology =
    Topology.create ~rng:(Rng.create 0x7090) ~n:(cluster_n + 1) ()
  in
  let net = Mem.create_net ~engine ~topology ~loss:0.0 ~seed:0x11 () in
  let peers = Bootstrap.peers cluster_n in
  let nodes =
    List.map
      (fun (i, id) ->
        Node.create (Mem.endpoint net ~node:i) ~config ~id ~peers ())
      peers
  in
  List.iter Node.serve nodes;
  Engine.run engine ~until:3.0;
  let client =
    Client.create
      (Mem.endpoint net ~node:cluster_n)
      ~replicas:3 ~rpc_timeout:2.0
      ~seeds:(List.init cluster_n Fun.id)
      ()
  in
  let krng = Rng.create 0xbeef in
  let keys = Array.init 120 (fun _ -> Key.random krng) in
  (* Keep at most [window] operations open; issue the next one as soon
     as a slot frees up, exactly like d2load's replay loop. *)
  let throttle limit =
    while Client.in_flight client >= limit do
      Client.poll client ~timeout:0.01
    done
  in
  let drain () = throttle 1 in
  Array.iter
    (fun key ->
      throttle window;
      Client.put_async client ~key ~data:(data_of key) (function
        | `Ok copies ->
            Alcotest.(check int) "pipelined put acked by all replicas" 3 copies
        | `Failed -> Alcotest.fail "pipelined put failed, cluster up"))
    keys;
  drain ();
  Array.iteri
    (fun i key ->
      if i < 60 then begin
        throttle window;
        Client.get_async client ~key (function
          | `Found d -> Alcotest.(check string) "pipelined get" (data_of key) d
          | `Missing | `Failed ->
              Alcotest.fail "pipelined pre-kill read lost a block")
      end)
    keys;
  drain ();
  let reference = Ring.create () in
  List.iter (fun (n, id) -> Ring.add reference ~id ~node:n) peers;
  let victim = Ring.successor reference keys.(0) in
  Mem.kill net victim;
  Engine.run engine ~until:(Engine.now engine +. 20.0);
  Array.iter
    (fun key ->
      throttle window;
      Client.get_async client ~key (function
        | `Found d ->
            Alcotest.(check string) "pipelined post-kill get" (data_of key) d
        | `Missing | `Failed ->
            Alcotest.fail "pipelined read lost after single kill"))
    keys;
  drain ();
  List.iter Node.stop nodes;
  let cache = Client.cache client in
  ( {
      hits = Lookup_cache.hits cache;
      misses = Lookup_cache.misses cache;
      lookup_rpcs = Client.lookup_rpcs client;
      failures = Client.failures client;
    },
    store_dump nodes )

(* Pipelining depth is a pure throughput knob: window 1 must match the
   synchronous pins bit-for-bit and land on the synchronous run's final
   store, and deeper windows may reorder wire traffic but must land
   every node on the identical final store. *)
let test_pipelined_depth_invariant () =
  let o1, dump1 = run_pipelined 1 in
  check_outcome "window 1 vs pin" pinned o1;
  let _, sync_dump = run () in
  Alcotest.(check bool)
    "window 1: store state identical to the synchronous run" true
    (sync_dump = dump1);
  List.iter
    (fun window ->
      let o, dump = run_pipelined window in
      Alcotest.(check int)
        (Printf.sprintf "window %d: failures" window)
        0 o.failures;
      Alcotest.(check bool)
        (Printf.sprintf "window %d: store state identical to window 1" window)
        true (dump = dump1))
    [ 4; 32 ]

let test_churn_deterministic () =
  let first, _ = run () in
  let second, _ = run () in
  check_outcome "second run" first second;
  check_outcome "pin" pinned first

(* α-way racing around a black-holed seed.  The partition makes one
   seed silently swallow client traffic — the half-open failure mode
   of a node that died without FINs, where an RPC concludes only by
   its timeout (a [kill] closes streams and fails fast, which is the
   easy case).  A fresh α=1 client entering through that seed stalls a
   full [rpc_timeout] before its ladder moves to the next seed; an
   α=2 client races a second chain through the next seed and settles
   in network time.  Virtual clocks make the contrast exact:
   elapsed(α=2) < rpc_timeout <= elapsed(α=1). *)
let test_alpha_race_survives_dead_seed () =
  let engine = Engine.create () in
  let topology =
    Topology.create ~rng:(Rng.create 0x7090) ~n:(cluster_n + 3) ()
  in
  let net = Mem.create_net ~engine ~topology ~loss:0.0 ~seed:0x11 () in
  let peers = Bootstrap.peers cluster_n in
  let nodes =
    List.map
      (fun (i, id) ->
        Node.create (Mem.endpoint net ~node:i) ~config ~id ~peers ())
      peers
  in
  List.iter Node.serve nodes;
  Engine.run engine ~until:3.0;
  (* Store one block while everything is reachable. *)
  let key = Key.random (Rng.create 0x51) in
  let setup =
    Client.create
      (Mem.endpoint net ~node:cluster_n)
      ~replicas:3 ~rpc_timeout:config.rpc_timeout
      ~seeds:(List.init cluster_n Fun.id)
      ()
  in
  (match Client.put setup ~key ~data:(data_of key) with
  | `Ok _ -> ()
  | `Failed -> Alcotest.fail "setup put failed");
  (* Seed ladder [dead; owner]: the second chain settles in one hop,
     so only the first chain ever touches the black hole, and the α=1
     ladder pays exactly one timeout before recovering. *)
  let reference = Ring.create () in
  List.iter (fun (n, id) -> Ring.add reference ~id ~node:n) peers;
  let owner = Ring.successor reference key in
  let dead = (owner + 7) mod cluster_n in
  Mem.set_partition net
    (Some
       (fun a b ->
         (a = dead && b >= cluster_n) || (b = dead && a >= cluster_n)));
  (* Fresh client per α (empty cache, virgin links) on its own slot. *)
  let timed_get alpha node =
    let client =
      Client.create (Mem.endpoint net ~node) ~replicas:3
        ~rpc_timeout:config.rpc_timeout ~alpha ~seeds:[ dead; owner ] ()
    in
    let t0 = Engine.now engine in
    (match Client.get client ~key with
    | `Found d -> Alcotest.(check string) "raced get" (data_of key) d
    | `Missing | `Failed -> Alcotest.fail "lookup died with a live owner");
    Engine.now engine -. t0
  in
  let e1 = timed_get 1 (cluster_n + 1) in
  let e2 = timed_get 2 (cluster_n + 2) in
  Alcotest.(check bool)
    (Printf.sprintf "alpha=1 stalls a full rpc_timeout (%.3fs)" e1)
    true
    (e1 >= config.rpc_timeout);
  Alcotest.(check bool)
    (Printf.sprintf "alpha=2 settles before the timeout (%.3fs)" e2)
    true
    (e2 < config.rpc_timeout);
  Mem.set_partition net None;
  List.iter Node.stop nodes

(* Small sanity run: 3 nodes, one block, full lifecycle including the
   stale-cache [Missing] path after remove. *)
let test_basic_lifecycle () =
  let engine = Engine.create () in
  let topology = Topology.create ~rng:(Rng.create 0x31) ~n:4 () in
  let net = Mem.create_net ~engine ~topology ~loss:0.0 ~seed:0x5 () in
  let peers = Bootstrap.peers 3 in
  let nodes =
    List.map
      (fun (i, id) ->
        Node.create (Mem.endpoint net ~node:i) ~config ~id ~peers ())
      peers
  in
  List.iter Node.serve nodes;
  Engine.run engine ~until:2.0;
  let client =
    Client.create (Mem.endpoint net ~node:3) ~replicas:3 ~rpc_timeout:2.0
      ~seeds:[ 0; 1; 2 ] ()
  in
  let key = Key.random (Rng.create 0x77) in
  (match Client.put client ~key ~data:"hello" with
  | `Ok copies -> Alcotest.(check int) "copies" 3 copies
  | `Failed -> Alcotest.fail "put");
  (* Every node holds the block: 3 replicas on a 3-node ring. *)
  List.iter
    (fun n ->
      Alcotest.(check bool)
        "replica present" true
        (D2_net.Blockstore.get (Node.store n) ~key <> None))
    nodes;
  (match Client.get client ~key with
  | `Found d -> Alcotest.(check string) "data" "hello" d
  | `Missing | `Failed -> Alcotest.fail "get");
  (match Client.remove client ~key with
  | `Ok removed -> Alcotest.(check bool) "removed" true removed
  | `Failed -> Alcotest.fail "remove");
  (match Client.get client ~key with
  | `Missing -> ()
  | `Found _ -> Alcotest.fail "block survived remove"
  | `Failed -> Alcotest.fail "get after remove");
  Alcotest.(check int) "no failures" 0 (Client.failures client);
  List.iter Node.stop nodes

(* Out-of-range runtime settings are rejected at [create], as
   [Client.create] rejects its own, before the node binds anything. *)
let test_create_rejects_bad_config () =
  let engine = Engine.create () in
  let topology = Topology.create ~rng:(Rng.create 0x7090) ~n:1 () in
  let net = Mem.create_net ~engine ~topology ~loss:0.0 ~seed:0x11 () in
  let ep = Mem.endpoint net ~node:0 in
  List.iter
    (fun (label, config) ->
      match
        Node.create ep ~config ~id:(Bootstrap.node_id 0) ~peers:[] ()
      with
      | _ -> Alcotest.failf "%s accepted" label
      | exception Invalid_argument _ -> ())
    [
      ("replicas 0", { config with replicas = 0 });
      ("probe_interval 0", { config with probe_interval = 0.0 });
      ("rpc_timeout -1", { config with rpc_timeout = -1.0 });
      ("repair_interval -3", { config with repair_interval = -3.0 });
    ]

(* A bare endpoint that speaks raw frame bytes to one node: frames a
   well-behaved client would never send still reach the daemon. *)
let raw_pair () =
  let engine = Engine.create () in
  let topology = Topology.create ~rng:(Rng.create 0x31) ~n:3 () in
  let net = Mem.create_net ~engine ~topology ~loss:0.0 ~seed:0x5 () in
  let nodes =
    List.map
      (fun (i, id) ->
        Node.create (Mem.endpoint net ~node:i) ~config ~id
          ~peers:(Bootstrap.peers 2) ())
      (Bootstrap.peers 2)
  in
  List.iter Node.serve nodes;
  Engine.run engine ~until:2.0;
  let ep = Mem.endpoint net ~node:2 in
  (* Send [frame] to node 0 on a fresh connection; the node's replies. *)
  let exchange frame =
    let conn = Option.get (Mem.connect ep ~dst:0) in
    let reader = D2_net.Wire.Reader.create () in
    let replies = ref [] in
    Mem.on_readable conn (fun () ->
        let n = ref 1 in
        while !n > 0 do
          let buf, off = D2_net.Transport.Bytebuf.reserve reader 4096 in
          n := Mem.recv_into conn buf ~off ~len:4096;
          D2_net.Transport.Bytebuf.commit reader !n
        done;
        let rec loop () =
          match D2_net.Wire.Reader.next reader with
          | `Msg (_, m) ->
              replies := m :: !replies;
              loop ()
          | `Awaiting | `Corrupt _ -> ()
        in
        loop ());
    Mem.send conn frame ~off:0 ~len:(Bytes.length frame);
    Engine.run engine ~until:(Engine.now engine +. 2.0);
    Mem.close conn;
    List.rev !replies
  in
  let still_serving () =
    match exchange (D2_net.Wire.encode ~req:1 D2_net.Wire.Probe) with
    | [ D2_net.Wire.Probe_ack { node = 0; _ } ] -> ()
    | _ -> Alcotest.fail "node stopped answering probes"
  in
  (nodes, exchange, still_serving)

(* An anti-entropy probe deeper than the digest trie is a protocol
   violation: the node drops the connection and keeps serving. *)
let test_deep_probe_keeps_serving () =
  let _, exchange, still_serving = raw_pair () in
  let key = Key.random (Rng.create 0x54) in
  List.iter
    (fun (label, msg, bits) ->
      let frame = D2_net.Wire.encode ~req:7 msg in
      Bytes.set_uint8 frame (9 + (2 * Key.size) + 4) bits;
      Alcotest.(check int) (label ^ ": no reply") 0
        (List.length (exchange frame));
      still_serving ())
    [
      ( "Sync_digests bits 30",
        D2_net.Wire.Sync_digests { lo = key; hi = key; prefix = 0; bits = 0 },
        30 );
      ( "Sync_keys bits 29",
        D2_net.Wire.Sync_keys { lo = key; hi = key; prefix = 0; bits = 0 },
        29 );
    ]

(* A write whose stamped vector the wire cannot carry (65 entries) is
   refused with [Error] and installs nothing; the node keeps serving. *)
let test_full_vector_refused () =
  let nodes, exchange, still_serving = raw_pair () in
  let wide =
    List.fold_left
      (fun vv node -> D2_sync.Version_vector.bump vv ~node)
      D2_sync.Version_vector.empty
      (List.init D2_sync.Version_vector.max_entries (fun i -> 100 + i))
  in
  let key = Key.random (Rng.create 0x55) in
  (match
     exchange
       (D2_net.Wire.encode ~req:3
          (D2_net.Wire.Put
             { key; depth = 1; vv = wide; data = D2_util.Slice.of_string "x" }))
   with
  | [ D2_net.Wire.Error _ ] -> ()
  | _ -> Alcotest.fail "want one Error reply");
  List.iter
    (fun n ->
      Alcotest.(check bool) "nothing installed" true
        (D2_sync.Vmap.find (Node.vmap n) ~key = None))
    nodes;
  still_serving ()

let () =
  Alcotest.run "net_mem"
    [
      ( "e2e",
        [
          Alcotest.test_case "basic lifecycle (3 nodes)" `Quick
            test_basic_lifecycle;
          Alcotest.test_case "25-node churn, pinned counters" `Quick
            test_churn_deterministic;
          Alcotest.test_case "pipelined churn, window-invariant state" `Quick
            test_pipelined_depth_invariant;
          Alcotest.test_case "alpha=2 races around a black-holed seed" `Quick
            test_alpha_race_survives_dead_seed;
          Alcotest.test_case "create rejects out-of-range config" `Quick
            test_create_rejects_bad_config;
          Alcotest.test_case "a too-deep repair probe leaves the node serving"
            `Quick test_deep_probe_keeps_serving;
          Alcotest.test_case "a vector the wire cannot carry is refused"
            `Quick test_full_vector_refused;
        ] );
    ]
