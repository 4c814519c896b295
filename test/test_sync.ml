(* The anti-entropy subsystem end to end: algebraic laws of the
   version vector (qcheck), order-independence of replica conflict
   resolution, and deterministic mem-transport cluster runs — kill
   churn with repair restoring every replica group to r, a repair-off
   control that stays under-replicated, partition-heal converging
   replicas byte-identically, and quorum reads performing inline
   read-repair. *)

module Engine = D2_simnet.Engine
module Topology = D2_simnet.Topology
module Key = D2_keyspace.Key
module Rng = D2_util.Rng
module Ring = D2_dht.Ring
module Mem = D2_net.Transport_mem
module Node = D2_net.Node.Make (D2_net.Transport_mem)
module Client = D2_net.Client.Make (D2_net.Transport_mem)
module Bootstrap = D2_net.Bootstrap
module Blockstore = D2_net.Blockstore
module Vv = D2_sync.Version_vector
module Vmap = D2_sync.Vmap

(* {1 Version-vector laws} *)

(* Build a vector by replaying bump events, the only constructor the
   runtime uses; the pair list is the printable counterexample. *)
let vv_of_pairs pairs =
  List.fold_left
    (fun v (node, extra) ->
      let rec go v k = if k = 0 then v else go (Vv.bump v ~node) (k - 1) in
      go v (extra + 1))
    Vv.empty pairs

let arb_pairs = QCheck.(small_list (pair (int_bound 20) (int_bound 3)))
let vv_equal a b = Vv.compare_vv a b = Vv.Equal

let prop_merge_commutative =
  QCheck.Test.make ~name:"merge commutative" ~count:500
    QCheck.(pair arb_pairs arb_pairs)
    (fun (a, b) ->
      let a = vv_of_pairs a and b = vv_of_pairs b in
      vv_equal (Vv.merge a b) (Vv.merge b a))

let prop_merge_associative =
  QCheck.Test.make ~name:"merge associative" ~count:500
    QCheck.(triple arb_pairs arb_pairs arb_pairs)
    (fun (a, b, c) ->
      let a = vv_of_pairs a and b = vv_of_pairs b and c = vv_of_pairs c in
      vv_equal (Vv.merge a (Vv.merge b c)) (Vv.merge (Vv.merge a b) c))

let prop_merge_idempotent =
  QCheck.Test.make ~name:"merge idempotent" ~count:500 arb_pairs (fun a ->
      let a = vv_of_pairs a in
      vv_equal (Vv.merge a a) a)

let prop_merge_dominates =
  QCheck.Test.make ~name:"merge dominates both operands" ~count:500
    QCheck.(pair arb_pairs arb_pairs)
    (fun (a, b) ->
      let a = vv_of_pairs a and b = vv_of_pairs b in
      let m = Vv.merge a b in
      Vv.dominates m a && Vv.dominates m b)

let prop_dominates_antisymmetric =
  QCheck.Test.make ~name:"dominates antisymmetric" ~count:500
    QCheck.(pair arb_pairs arb_pairs)
    (fun (a, b) ->
      let a = vv_of_pairs a and b = vv_of_pairs b in
      (not (Vv.dominates a b && Vv.dominates b a)) || vv_equal a b)

let prop_winner_symmetric =
  QCheck.Test.make ~name:"winner picks the same side from both ends" ~count:500
    QCheck.(pair arb_pairs arb_pairs)
    (fun (a, b) ->
      let a = vv_of_pairs a and b = vv_of_pairs b in
      let sel x y = match Vv.winner x y with `Left -> x | `Right -> y in
      vv_equal (sel a b) (sel b a))

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec roundtrip" ~count:500 arb_pairs (fun a ->
      let a = vv_of_pairs a in
      let size = Vv.encoded_size a in
      let buf = Bytes.create size in
      let written = Vv.encode_into a buf ~off:0 in
      written = size
      &&
      match Vv.decode buf ~off:0 ~stop:size with
      | Some (a', consumed) -> consumed = size && vv_equal a a'
      | None -> false)

let prop_codec_truncation =
  QCheck.Test.make ~name:"codec rejects truncation" ~count:200 arb_pairs
    (fun a ->
      let a = vv_of_pairs a in
      QCheck.assume (not (Vv.is_empty a));
      let size = Vv.encoded_size a in
      let buf = Bytes.create size in
      ignore (Vv.encode_into a buf ~off:0);
      Vv.decode buf ~off:0 ~stop:(size - 1) = None)

(* Replica conflict resolution is order-independent: two replicas that
   apply the same pair of stamped copies in opposite orders end with
   the same vector and the same bytes — the convergence argument the
   whole subsystem rests on. *)
let prop_apply_order_independent =
  QCheck.Test.make ~name:"Vmap.apply order-independent" ~count:300
    QCheck.(pair arb_pairs arb_pairs)
    (fun (a, b) ->
      let va = vv_of_pairs a and vb = vv_of_pairs b in
      (* Equal vectors with different bytes never arise: every stamp
         bumps the coordinator's counter. *)
      QCheck.assume (not (vv_equal va vb));
      let key = Key.random (Rng.create 0x5eed) in
      let run copies =
        let m = Vmap.create () in
        List.iter
          (fun (vv, data) -> ignore (Vmap.apply m ~key ~vv ~data:(Some data)))
          copies;
        match Vmap.read m ~key with
        | Some (e, bytes) -> (bytes, e.Vmap.vv)
        | None -> (None, Vv.empty)
      in
      let b1, v1 = run [ (va, "A"); (vb, "B") ] in
      let b2, v2 = run [ (vb, "B"); (va, "A") ] in
      b1 = b2 && vv_equal v1 v2)

(* Neither write path stores a vector the wire cannot carry: more
   than [Vv.max_entries] entries, or a counter past u32.  The refused
   write installs nothing, so the key keeps serving its old copy. *)
let test_vmap_refuses_unencodable () =
  let key = Key.random (Rng.create 0x6e) in
  let wide =
    List.fold_left
      (fun vv node -> Vv.bump vv ~node)
      Vv.empty
      (List.init Vv.max_entries (fun i -> 100 + i))
  in
  let m = Vmap.create () in
  Alcotest.(check bool) "65th entry refused" true
    (Vmap.write m ~key ~node:1 ~incoming:wide ~data:(Some "a") = None);
  Alcotest.(check bool) "nothing installed" true (Vmap.read m ~key = None);
  (* {1: 2^32 - 1}, built from its wire form. *)
  let top =
    let b = Bytes.create 9 in
    Bytes.set_uint8 b 0 1;
    Bytes.set_int32_be b 1 1l;
    Bytes.set_int32_be b 5 0xffff_ffffl;
    fst (Option.get (Vv.decode b ~off:0 ~stop:9))
  in
  Alcotest.(check bool) "counter past u32 refused" true
    (Vmap.write m ~key ~node:1 ~incoming:top ~data:(Some "a") = None);
  (* A replica holding {1:1} receives the 64-entry copy: the merge
     would hold 65 entries, so neither bytes nor vector change. *)
  let own = Vv.bump Vv.empty ~node:1 in
  Alcotest.(check bool) "own copy applied" true
    (fst (Vmap.apply m ~key ~vv:own ~data:(Some "own")));
  Alcotest.(check bool) "65-entry merge not applied" false
    (fst (Vmap.apply m ~key ~vv:wide ~data:(Some "wide")));
  match Vmap.read m ~key with
  | Some (e, Some "own") when vv_equal e.Vmap.vv own -> ()
  | _ -> Alcotest.fail "refused copy changed the entry"

(* {1 Two domains, one key}

   Domain siblings share one table and stamp with the same node id.
   Two domains write one key while a third reads it throughout: every
   read must return the bytes of the write whose counter its vector
   holds, and the key must end with the bytes of the write that got
   the highest counter. *)

let test_two_domain_writes () =
  let node = 7 and writes = 200 and trials = 50 in
  let key = Key.random (Rng.create 0x2d0) in
  for trial = 1 to trials do
    let m = Vmap.create () in
    let writer tag () =
      List.init writes (fun i ->
          let data = Printf.sprintf "%c%d.%d" tag trial i in
          let vv, _, _ =
            Option.get
              (Vmap.write m ~key ~node ~incoming:Vv.empty ~data:(Some data))
          in
          (Vv.get vv node, data))
    in
    let stop = Atomic.make false in
    let reader () =
      let seen = ref [] in
      while not (Atomic.get stop) do
        match Vmap.read m ~key with
        | Some (e, Some data) ->
            seen := (Vv.get e.Vmap.vv node, data) :: !seen
        | Some (_, None) ->
            Alcotest.fail "two domains: live key read as a tombstone"
        | None -> ()
      done;
      !seen
    in
    let r = Domain.spawn reader in
    let a = Domain.spawn (writer 'a') and b = Domain.spawn (writer 'b') in
    let log = Domain.join a @ Domain.join b in
    Atomic.set stop true;
    let seen = Domain.join r in
    let by_counter = Hashtbl.create (2 * writes) in
    List.iter
      (fun (counter, data) ->
        if Hashtbl.mem by_counter counter then
          Alcotest.failf "two domains: counter %d stamped twice" counter;
        Hashtbl.replace by_counter counter data)
      log;
    List.iter
      (fun (counter, data) ->
        Alcotest.(check (option string))
          "two domains: read bytes match the vector's write"
          (Hashtbl.find_opt by_counter counter)
          (Some data))
      seen;
    let final =
      match Vmap.read m ~key with
      | Some (e, bytes) -> (Vv.get e.Vmap.vv node, bytes)
      | None -> Alcotest.fail "two domains: key missing"
    in
    Alcotest.(check (pair int (option string)))
      "two domains: the highest counter's bytes win"
      (2 * writes, Hashtbl.find_opt by_counter (2 * writes))
      final
  done

(* {1 Cluster harness} *)

type cluster = {
  engine : Engine.t;
  net : Mem.net;
  peers : (int * Key.t) list;
  nodes : Node.t array; (* index = transport slot *)
}

let boot ~n ~extra ~config () =
  let engine = Engine.create () in
  let topology = Topology.create ~rng:(Rng.create 0x7090) ~n:(n + extra) () in
  let net = Mem.create_net ~engine ~topology ~loss:0.0 ~seed:0x11 () in
  let peers = Bootstrap.peers n in
  let nodes =
    List.map
      (fun (i, id) ->
        Node.create (Mem.endpoint net ~node:i) ~config ~id ~peers ())
      peers
    |> Array.of_list
  in
  Array.iter Node.serve nodes;
  Engine.run engine ~until:3.0;
  { engine; net; peers; nodes }

let run_for c seconds = Engine.run c.engine ~until:(Engine.now c.engine +. seconds)

let ring_of_live c ~dead =
  let r = Ring.create () in
  List.iter
    (fun (n, id) -> if not (List.mem n dead) then Ring.add r ~id ~node:n)
    c.peers;
  r

let entry_vv c n key =
  match Vmap.read (Node.vmap c.nodes.(n)) ~key with
  | Some (e, _) -> e.Vmap.vv
  | None -> Vv.empty

(* Every key's replica group — the r successors on the live ring —
   holds byte-identical winning data under converged vectors. *)
let check_groups ~label c ~ring ~r expect =
  Hashtbl.iter
    (fun key data ->
      let group = Ring.successors ring key r in
      Alcotest.(check int) (label ^ ": group size") r (List.length group);
      let vvs = List.map (fun n -> entry_vv c n key) group in
      List.iter
        (fun n ->
          match Blockstore.get (Node.store c.nodes.(n)) ~key with
          | Some d -> Alcotest.(check string) (label ^ ": replica bytes") data d
          | None -> Alcotest.fail (label ^ ": replica group below r"))
        group;
      List.iter
        (fun v ->
          Alcotest.(check bool)
            (label ^ ": vectors converged")
            true
            (Vv.compare_vv v (List.hd vvs) = Vv.Equal))
        vvs)
    expect

(* Copies of [key] anywhere among live nodes (wherever repair or old
   fan-out may have left them). *)
let total_copies c ~dead key =
  let n = ref 0 in
  Array.iteri
    (fun i node ->
      if
        (not (List.mem i dead))
        && Blockstore.get (Node.store node) ~key <> None
      then incr n)
    c.nodes;
  !n

(* {1 Kill churn: repair restores r, control stays degraded} *)

let churn_n = 25
let data_v v key = Printf.sprintf "v%d:%s" v (Key.to_string key)

(* One scripted churn run: load the cluster, sever one node during a
   wave of overwrites (stale replicas), heal, then kill that node and
   a second one mid-load.  Returns the cluster, the surviving nodes'
   expected contents, and the dead set. *)
let churn_run ~repair_interval =
  let config =
    {
      D2_net.Node.replicas = 3;
      probe_interval = 0.5;
      rpc_timeout = 2.0;
      repair_interval;
    }
  in
  let c = boot ~n:churn_n ~extra:1 ~config () in
  let client =
    Client.create
      (Mem.endpoint c.net ~node:churn_n)
      ~replicas:3 ~rpc_timeout:5.0 ~retries:8
      ~seeds:(List.init churn_n Fun.id)
      ()
  in
  let keys = Array.init 120 (fun _ -> Key.zero) in
  let () =
    let rng = Rng.create 0xbeef in
    Array.iteri (fun i _ -> keys.(i) <- Key.random rng) keys
  in
  let expect = Hashtbl.create 64 in
  let full = ring_of_live c ~dead:[] in
  (* Phase 1: 90 blocks, everything up — all three replicas ack. *)
  for i = 0 to 89 do
    let key = keys.(i) in
    match Client.put client ~key ~data:(data_v 1 key) with
    | `Ok copies ->
        Alcotest.(check int) "churn: initial put copies" 3 copies;
        Hashtbl.replace expect key (data_v 1 key)
    | `Failed -> Alcotest.fail "churn: initial put failed, cluster up"
  done;
  (* Phase 2: sever X (the owner of keys.(0)) and overwrite 30 blocks
     X replicates but does not own — every copy X misses leaves it
     stale, exactly what anti-entropy must detect. *)
  let x = Ring.successor full keys.(0) in
  Mem.set_partition c.net (Some (fun a b -> a = x <> (b = x)));
  let overwritten = ref 0 in
  Array.iter
    (fun key ->
      if !overwritten < 30 && Ring.successor full key <> x then begin
        incr overwritten;
        match Client.put client ~key ~data:(data_v 2 key) with
        | `Ok _ -> Hashtbl.replace expect key (data_v 2 key)
        | `Failed -> Alcotest.fail "churn: overwrite failed behind partition"
      end)
    keys;
  Alcotest.(check int) "churn: overwrite wave size" 30 !overwritten;
  Mem.set_partition c.net None;
  run_for c 5.0;
  (* Phase 3: kill X outright; after detection converges, load 30 new
     blocks (their groups may include Y), then kill Y mid-life. *)
  Mem.kill c.net x;
  run_for c 20.0;
  for i = 90 to 119 do
    let key = keys.(i) in
    match Client.put client ~key ~data:(data_v 1 key) with
    | `Ok _ -> Hashtbl.replace expect key (data_v 1 key)
    | `Failed -> Alcotest.fail "churn: post-kill put failed"
  done;
  let y =
    let rec pick i =
      let cand = Ring.successor full keys.(i) in
      if cand <> x then cand else pick (i + 1)
    in
    pick 1
  in
  Mem.kill c.net y;
  (* Give failure detection and the rotating repair schedule time to
     converge: N = 90 virtual seconds covers dozens of per-node repair
     rounds at the 1 s interval. *)
  run_for c 90.0;
  (c, expect, [ x; y ])

let test_churn_repair_restores_r () =
  let c, expect, dead = churn_run ~repair_interval:1.0 in
  let ring = ring_of_live c ~dead in
  check_groups ~label:"repair on" c ~ring ~r:3 expect;
  let frames, bytes, moved =
    Array.to_list c.nodes
    |> List.map Node.repair_stats
    |> List.fold_left
         (fun (fr, by, mv) s ->
           ( fr + s.D2_net.Node.repair_frames,
             by + s.D2_net.Node.repair_bytes,
             mv + s.D2_net.Node.pushed + s.D2_net.Node.pulled ))
         (0, 0, 0)
  in
  Alcotest.(check bool) "repair exchanged frames" true (frames > 0);
  Alcotest.(check bool) "repair accounted bytes" true (bytes > frames);
  Alcotest.(check bool) "repair moved copies" true (moved > 0);
  Array.iter Node.stop c.nodes

let test_churn_control_stays_under_replicated () =
  let c, expect, dead = churn_run ~repair_interval:0.0 in
  let degraded =
    Hashtbl.fold
      (fun key _ acc -> if total_copies c ~dead key < 3 then acc + 1 else acc)
      expect 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "repair off leaves groups below r (%d degraded)" degraded)
    true (degraded > 0);
  Array.iter Node.stop c.nodes

(* {1 Partition heal: replicas converge byte-identically} *)

(* Static membership (probes effectively off) isolates the data plane:
   the partition drops replica copies without evicting anyone from the
   ring, and after healing only anti-entropy can reconcile. *)
let static_config ~repair_interval =
  {
    D2_net.Node.replicas = 3;
    probe_interval = 1000.0;
    rpc_timeout = 1.0;
    repair_interval;
  }

let test_partition_heal_converges () =
  let c = boot ~n:9 ~extra:1 ~config:(static_config ~repair_interval:1.0) () in
  let client =
    Client.create (Mem.endpoint c.net ~node:9) ~replicas:3 ~rpc_timeout:5.0
      ~seeds:(List.init 9 Fun.id) ()
  in
  let rng = Rng.create 0x1ea1 in
  let keys = Array.init 40 (fun _ -> Key.random rng) in
  let ring = ring_of_live c ~dead:[] in
  Array.iter
    (fun key ->
      match Client.put client ~key ~data:(data_v 1 key) with
      | `Ok copies -> Alcotest.(check int) "heal: seed put copies" 3 copies
      | `Failed -> Alcotest.fail "heal: seed put failed")
    keys;
  (* Sever P and overwrite every block P replicates but does not own:
     the owner acks exactly 2 copies (itself + the reachable replica)
     and P is left holding v1 under a dominated vector. *)
  let p = Ring.successor ring keys.(0) in
  let stale =
    Array.to_list keys
    |> List.filter (fun key ->
           let group = Ring.successors ring key 3 in
           List.mem p group && Ring.successor ring key <> p)
  in
  Alcotest.(check bool) "heal: stale set non-empty" true (stale <> []);
  Mem.set_partition c.net (Some (fun a b -> a = p <> (b = p)));
  (* The first timed-out forward to P evicts it from that owner's ring
     view (suspect on RPC timeout), so later puts may reach 3 live
     replicas — either way the owner stores v2 and P misses it. *)
  List.iter
    (fun key ->
      match Client.put client ~key ~data:(data_v 2 key) with
      | `Ok copies ->
          Alcotest.(check bool)
            "heal: partitioned put reached a majority" true (copies >= 2)
      | `Failed -> Alcotest.fail "heal: partitioned put failed")
    stale;
  Mem.set_partition c.net None;
  (* P still holds v1 the instant the cable is back. *)
  List.iter
    (fun key ->
      Alcotest.(check (option string))
        "heal: P stale before repair"
        (Some (data_v 1 key))
        (Blockstore.get (Node.store c.nodes.(p)) ~key))
    stale;
  (* An evicted-but-alive peer re-enters via Join — re-serving P
     re-announces it to everyone whose view dropped it. *)
  Node.serve c.nodes.(p);
  run_for c 40.0;
  let expect = Hashtbl.create 64 in
  Array.iter (fun key -> Hashtbl.replace expect key (data_v 1 key)) keys;
  List.iter (fun key -> Hashtbl.replace expect key (data_v 2 key)) stale;
  check_groups ~label:"partition heal" c ~ring ~r:3 expect;
  Array.iter Node.stop c.nodes

(* {1 Quorum reads: read-repair without anti-entropy} *)

let test_quorum_read_repair () =
  (* Repair off: the only mechanism allowed to fix the stale replica
     is the quorum read's inline push. *)
  let c = boot ~n:9 ~extra:3 ~config:(static_config ~repair_interval:0.0) () in
  let seeds = List.init 9 Fun.id in
  let client =
    Client.create (Mem.endpoint c.net ~node:9) ~replicas:3 ~rpc_timeout:5.0
      ~seeds ()
  in
  let ring = ring_of_live c ~dead:[] in
  (* A quorum-2 read consults the owner plus the first successor, so
     the stale replica must be that first successor. *)
  let rng = Rng.create 0x9a3 in
  let rec pick () =
    let key = Key.random rng in
    match Ring.successors ring key 3 with
    | [ o; s1; s2 ] -> (key, o, s1, s2)
    | _ -> pick ()
  in
  let key, owner, p, s2 = pick () in
  (match Client.put client ~key ~data:(data_v 1 key) with
  | `Ok copies -> Alcotest.(check int) "rr: seed put copies" 3 copies
  | `Failed -> Alcotest.fail "rr: seed put failed");
  (* Make P miss an update without touching the network (a partition
     would evict it from the owner's view on the first fan-out
     timeout): install a dominating stamped copy directly on the other
     two replicas, exactly the state a lost fan-out frame leaves. *)
  let vv2 = Vv.bump (entry_vv c owner key) ~node:owner in
  List.iter
    (fun n ->
      let installed, _ =
        Vmap.apply (Node.vmap c.nodes.(n)) ~key ~vv:vv2
          ~data:(Some (data_v 2 key))
      in
      if not installed then
        Alcotest.fail "rr: injected copy lost the version race")
    [ owner; s2 ];
  (* A plain (quorum-1) read serves the owner's copy and fixes
     nothing: the control for the quorum read below. *)
  (match Client.get client ~key with
  | `Found d -> Alcotest.(check string) "rr: plain read" (data_v 2 key) d
  | `Missing | `Failed -> Alcotest.fail "rr: plain read failed");
  run_for c 2.0;
  Alcotest.(check (option string))
    "rr: replica still stale after plain read"
    (Some (data_v 1 key))
    (Blockstore.get (Node.store c.nodes.(p)) ~key);
  (* quorum_r = 2: the read returns the dominating copy and pushes it
     to the stale replica off the reply path. *)
  let qclient =
    Client.create (Mem.endpoint c.net ~node:10) ~replicas:3 ~quorum_r:2
      ~rpc_timeout:5.0 ~seeds ()
  in
  (match Client.get qclient ~key with
  | `Found d -> Alcotest.(check string) "rr: quorum read wins" (data_v 2 key) d
  | `Missing | `Failed -> Alcotest.fail "rr: quorum read failed");
  run_for c 2.0;
  Alcotest.(check (option string))
    "rr: replica repaired by the read"
    (Some (data_v 2 key))
    (Blockstore.get (Node.store c.nodes.(p)) ~key);
  Alcotest.(check bool)
    "rr: vectors converged" true
    (Vv.compare_vv (entry_vv c p key) (entry_vv c owner key) = Vv.Equal);
  Array.iter Node.stop c.nodes

(* Write quorums on a 3-node ring, where routing cannot work around a
   severed replica: every group is the whole cluster, so with one node
   unreachable a put settles at 2 acks — enough for w=2, a hard
   failure for w=3. *)
let test_write_quorum () =
  let c = boot ~n:3 ~extra:2 ~config:(static_config ~repair_interval:0.0) () in
  let seeds = [ 0; 1; 2 ] in
  let ring = ring_of_live c ~dead:[] in
  let key = Key.random (Rng.create 0x3a7) in
  let z = List.nth (Ring.successors ring key 3) 1 in
  let wclient w node =
    Client.create (Mem.endpoint c.net ~node) ~replicas:3 ~quorum_w:w
      ~rpc_timeout:5.0 ~retries:2 ~seeds ()
  in
  let w3 = wclient 3 3 and w2 = wclient 2 4 in
  (match Client.put w3 ~key ~data:(data_v 1 key) with
  | `Ok copies -> Alcotest.(check int) "wq: w=3 put, all up" 3 copies
  | `Failed -> Alcotest.fail "wq: w=3 put failed with the cluster up");
  Mem.set_partition c.net (Some (fun a b -> a = z <> (b = z)));
  (match Client.put w2 ~key ~data:(data_v 2 key) with
  | `Ok copies -> Alcotest.(check int) "wq: w=2 put copies" 2 copies
  | `Failed -> Alcotest.fail "wq: w=2 put failed");
  (match Client.put w3 ~key ~data:(data_v 3 key) with
  | `Failed -> ()
  | `Ok _ -> Alcotest.fail "wq: w=3 put succeeded with a severed replica");
  Mem.set_partition c.net None;
  Array.iter Node.stop c.nodes

let () =
  Alcotest.run "sync"
    [
      ( "version_vector",
        [
          QCheck_alcotest.to_alcotest prop_merge_commutative;
          QCheck_alcotest.to_alcotest prop_merge_associative;
          QCheck_alcotest.to_alcotest prop_merge_idempotent;
          QCheck_alcotest.to_alcotest prop_merge_dominates;
          QCheck_alcotest.to_alcotest prop_dominates_antisymmetric;
          QCheck_alcotest.to_alcotest prop_winner_symmetric;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_codec_truncation;
          QCheck_alcotest.to_alcotest prop_apply_order_independent;
        ] );
      ( "vmap",
        [
          Alcotest.test_case "two domains: bytes follow the vector" `Quick
            test_two_domain_writes;
          Alcotest.test_case "unencodable vectors are refused" `Quick
            test_vmap_refuses_unencodable;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "kill churn: repair restores every group to r"
            `Quick test_churn_repair_restores_r;
          Alcotest.test_case "kill churn: repair-off control degrades" `Quick
            test_churn_control_stays_under_replicated;
          Alcotest.test_case "partition heal converges byte-identically" `Quick
            test_partition_heal_converges;
          Alcotest.test_case "quorum read repairs a stale replica inline"
            `Quick test_quorum_read_repair;
          Alcotest.test_case "write quorum gates on acked copies" `Quick
            test_write_quorum;
        ] );
    ]
