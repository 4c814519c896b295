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
module World = D2_net.Mem_world
module Node = World.Node
module Client = World.Client
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

(* One full scripted run: load the cluster, kill a node, read every
   block back.  With [window] unset each operation is a synchronous
   call; with [Some k] the pipelined client keeps at most [k] open and
   issues the next as soon as a slot frees up, exactly like d2load's
   replay loop.  Everything is seeded, so two calls must produce
   identical traffic, identical counters and an identical final store:
   the copies each key's live replica group holds. *)
let run ?window () =
  let w = World.boot ~config ~n:cluster_n () in
  let client =
    Client.create (World.endpoint w) ~replicas:3 ~rpc_timeout:2.0
      ~seeds:(List.init cluster_n Fun.id)
      ()
  in
  let krng = Rng.create 0xbeef in
  let keys = Array.init 120 (fun _ -> Key.random krng) in
  let throttle limit =
    while Client.in_flight client >= limit do
      Client.poll client ~timeout:0.01
    done
  in
  let drain () = throttle 1 in
  let put key k =
    match window with
    | None -> k (Client.put client ~key ~data:(data_of key))
    | Some n ->
        throttle n;
        Client.put_async client ~key ~data:(data_of key) k
  in
  let get key k =
    match window with
    | None -> k (Client.get client ~key)
    | Some n ->
        throttle n;
        Client.get_async client ~key k
  in
  (* Phase 1: store everything with 3-way replication; with every node
     up and no loss, all three copies must ack. *)
  Array.iter
    (fun key ->
      put key (function
        | `Ok copies ->
            Alcotest.(check int) "put acked by all replicas" 3 copies
        | `Failed -> Alcotest.fail "put failed with the whole cluster up"))
    keys;
  drain ();
  (* Phase 2: read the first half back (warming cached ranges that the
     kill below will partly invalidate). *)
  Array.iteri
    (fun i key ->
      if i < 60 then
        get key (function
          | `Found d -> Alcotest.(check string) "get" (data_of key) d
          | `Missing | `Failed -> Alcotest.fail "pre-kill read lost a block"))
    keys;
  drain ();
  (* Kill the owner of keys.(0): it owns data, it is covered by cached
     ranges, and its successor holds the surviving replica. *)
  let victim = Ring.successor (World.live_ring w) keys.(0) in
  World.kill w victim;
  (* Let failure detection converge everywhere: broken streams flag the
     kill immediately; the rotating probe covers stragglers. *)
  World.run w 20.0;
  (* Phase 3: every block must still read correctly through the
     survivors — the victim's keys now serve from its successor. *)
  Array.iter
    (fun key ->
      get key (function
        | `Found d -> Alcotest.(check string) "post-kill get" (data_of key) d
        | `Missing | `Failed -> Alcotest.fail "read lost after single kill"))
    keys;
  drain ();
  World.stop w;
  let cache = Client.cache client in
  ( {
      hits = Lookup_cache.hits cache;
      misses = Lookup_cache.misses cache;
      lookup_rpcs = Client.lookup_rpcs client;
      failures = Client.failures client;
    },
    Array.map (World.copies w) keys )

(* Counters for the scripted run above.  A change here means the
   protocol's message or cache behaviour changed — rerun twice, and if
   both runs agree, re-pin deliberately. *)
let pinned = { hits = 279; misses = 22; lookup_rpcs = 73; failures = 0 }

let check_outcome label expected got =
  Alcotest.(check int) (label ^ ": cache hits") expected.hits got.hits;
  Alcotest.(check int) (label ^ ": cache misses") expected.misses got.misses;
  Alcotest.(check int) (label ^ ": lookup rpcs") expected.lookup_rpcs got.lookup_rpcs;
  Alcotest.(check int) (label ^ ": failures") expected.failures got.failures

(* A dump's copies without their stamps: a stamp is the coordinator's
   clock at the write, which a deeper window moves. *)
let unstamped dump =
  Array.map
    (List.map (fun (n, (v : D2_sync.Version.t), bytes) -> (n, v.node, bytes)))
    dump

(* Every key's live replica group holds one version. *)
let converged dump =
  Array.for_all
    (function
      | [] -> true
      | (_, v, _) :: rest ->
          List.for_all (fun (_, v', _) -> D2_sync.Version.equal v v') rest)
    dump

(* Pipelining depth is a pure throughput knob: window 1 must match the
   synchronous pins bit-for-bit and land on the synchronous run's final
   store, versions included.  Deeper windows may reorder wire traffic,
   and so stamp writes at other clock readings, but must leave every
   key's live replica group on one version, holding the identical
   bytes, stamped by the same coordinator. *)
let test_pipelined_depth_invariant () =
  let o1, dump1 = run ~window:1 () in
  check_outcome "window 1 vs pin" pinned o1;
  let _, sync_dump = run () in
  Alcotest.(check bool)
    "window 1: store state identical to the synchronous run" true
    (sync_dump = dump1);
  Alcotest.(check bool) "window 1: replica groups converged" true
    (converged dump1);
  List.iter
    (fun window ->
      let o, dump = run ~window () in
      Alcotest.(check int)
        (Printf.sprintf "window %d: failures" window)
        0 o.failures;
      Alcotest.(check bool)
        (Printf.sprintf "window %d: replica groups converged" window)
        true (converged dump);
      Alcotest.(check bool)
        (Printf.sprintf "window %d: store state identical to window 1" window)
        true
        (unstamped dump = unstamped dump1))
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
  let w = World.boot ~config ~n:cluster_n () in
  (* Store one block while everything is reachable. *)
  let key = Key.random (Rng.create 0x51) in
  let setup =
    Client.create (World.endpoint w) ~replicas:3
      ~rpc_timeout:config.rpc_timeout
      ~seeds:(List.init cluster_n Fun.id)
      ()
  in
  (match Client.put setup ~key ~data:(data_of key) with
  | `Ok _ -> ()
  | `Failed -> Alcotest.fail "setup put failed");
  (* Seed ladder [dead; owner]: the second chain settles in one hop,
     so only the first chain ever touches the black hole, and the α=1
     ladder pays exactly one timeout before recovering. *)
  let owner = Ring.successor (World.live_ring w) key in
  let dead = (owner + 7) mod cluster_n in
  World.partition w (fun a b ->
      (a = dead && b >= cluster_n) || (b = dead && a >= cluster_n));
  (* Fresh client per α (empty cache, virgin links) on its own slot. *)
  let timed_get alpha =
    let ep = World.endpoint w in
    let client =
      Client.create ep ~replicas:3 ~rpc_timeout:config.rpc_timeout ~alpha
        ~seeds:[ dead; owner ] ()
    in
    let t0 = Mem.now ep in
    (match Client.get client ~key with
    | `Found d -> Alcotest.(check string) "raced get" (data_of key) d
    | `Missing | `Failed -> Alcotest.fail "lookup died with a live owner");
    Mem.now ep -. t0
  in
  let e1 = timed_get 1 in
  let e2 = timed_get 2 in
  Alcotest.(check bool)
    (Printf.sprintf "alpha=1 stalls a full rpc_timeout (%.3fs)" e1)
    true
    (e1 >= config.rpc_timeout);
  Alcotest.(check bool)
    (Printf.sprintf "alpha=2 settles before the timeout (%.3fs)" e2)
    true
    (e2 < config.rpc_timeout);
  World.heal w;
  World.stop w

(* Small sanity run: 3 nodes, one block, full lifecycle including the
   stale-cache [Missing] path after remove. *)
let test_basic_lifecycle () =
  let w = World.boot ~config ~n:3 () in
  let client =
    Client.create (World.endpoint w) ~replicas:3 ~rpc_timeout:2.0
      ~seeds:[ 0; 1; 2 ] ()
  in
  let key = Key.random (Rng.create 0x77) in
  (match Client.put client ~key ~data:"hello" with
  | `Ok copies -> Alcotest.(check int) "copies" 3 copies
  | `Failed -> Alcotest.fail "put");
  (* Every node holds the block: 3 replicas on a 3-node ring. *)
  Alcotest.(check int) "replicas present" 3 (List.length (World.copies w key));
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
  World.stop w

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
  let w = World.boot ~config ~n:2 () in
  let ep = World.endpoint w in
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
    World.run w 2.0;
    Mem.close conn;
    List.rev !replies
  in
  let still_serving () =
    match exchange (D2_net.Wire.encode ~req:1 D2_net.Wire.Probe) with
    | [ D2_net.Wire.Probe_ack { node = 0; _ } ] -> ()
    | _ -> Alcotest.fail "node stopped answering probes"
  in
  (exchange, still_serving)

(* An anti-entropy probe deeper than the digest trie is a protocol
   violation: the node drops the connection and keeps serving. *)
let test_deep_probe_keeps_serving () =
  let exchange, still_serving = raw_pair () in
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
        ] );
    ]
