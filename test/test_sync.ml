(* The anti-entropy subsystem end to end: algebraic laws of the
   version vector (qcheck), order-independence of replica conflict
   resolution, and deterministic mem-transport cluster runs — kill
   churn with repair restoring every replica group to r, a repair-off
   control that stays under-replicated, partition-heal converging
   replicas byte-identically, and quorum reads performing inline
   read-repair that leaves a concurrent pair on one vector. *)

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
module Digest = D2_sync.Digest
module Crc32c = D2_segstore.Crc32c
module Store = D2_segstore.Store
module Slice = D2_util.Slice

(* The table's string-facing view, for assertions: [read] copies the
   borrowed bytes out, [some] lends a string as a write's bytes. *)
let read m ~key =
  Option.map
    (fun (e, d) -> (e, Option.map Slice.to_string d))
    (Vmap.read m ~key (Bytes.create 8192))

let some s = Some (Slice.of_string s)

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
          (fun (vv, data) -> ignore (Vmap.apply m ~key ~vv ~data:(some data)))
          copies;
        match read m ~key with
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
    (Vmap.write m ~key ~node:1 ~incoming:wide ~data:(some "a") = None);
  Alcotest.(check bool) "nothing installed" true (read m ~key = None);
  (* {1: 2^32 - 1}, built from its wire form. *)
  let top =
    let b = Bytes.create 9 in
    Bytes.set_uint8 b 0 1;
    Bytes.set_int32_be b 1 1l;
    Bytes.set_int32_be b 5 0xffff_ffffl;
    fst (Option.get (Vv.decode b ~off:0 ~stop:9))
  in
  Alcotest.(check bool) "counter past u32 refused" true
    (Vmap.write m ~key ~node:1 ~incoming:top ~data:(some "a") = None);
  (* A replica holding {1:1} receives the 64-entry copy: the merge
     would hold 65 entries, so neither bytes nor vector change. *)
  let own = Vv.bump Vv.empty ~node:1 in
  Alcotest.(check bool) "own copy applied" true
    (fst (Vmap.apply m ~key ~vv:own ~data:(some "own")));
  Alcotest.(check bool) "65-entry merge not applied" false
    (fst (Vmap.apply m ~key ~vv:wide ~data:(some "wide")));
  match read m ~key with
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
              (Vmap.write m ~key ~node ~incoming:Vv.empty ~data:(some data))
          in
          (Vv.get vv node, data))
    in
    let stop = Atomic.make false in
    let reader () =
      let seen = ref [] in
      while not (Atomic.get stop) do
        match read m ~key with
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
      match read m ~key with
      | Some (e, bytes) -> (Vv.get e.Vmap.vv node, bytes)
      | None -> Alcotest.fail "two domains: key missing"
    in
    Alcotest.(check (pair int (option string)))
      "two domains: the highest counter's bytes win"
      (2 * writes, Hashtbl.find_opt by_counter (2 * writes))
      final
  done

(* {1 Range digests}

   A live table answers repair probes from per-range cells it keeps
   current on every change ({!Vmap.children}); the fold over the same
   entries ({!Digest.children} over {!Vmap.iter}) is the definition it
   must match, at every depth and on every range, through every kind
   of change a table sees. *)

(* The per-entry CRC as it was first written: the key, the encoded
   vector and the flag, chained through three CRC calls. *)
let chained_entry_crc key vv deleted =
  let crc = Crc32c.string (Key.to_string key) ~pos:0 ~len:Key.size in
  let vb = Bytes.create (Vv.encoded_size vv) in
  ignore (Vv.encode_into vv vb ~off:0);
  let crc = Crc32c.bytes ~crc vb ~pos:0 ~len:(Bytes.length vb) in
  Crc32c.string ~crc (if deleted then "\001" else "\000") ~pos:0 ~len:1

let prop_entry_crc_chained =
  QCheck.Test.make ~name:"entry_crc = chained CRC of key, vector, flag"
    ~count:500
    QCheck.(triple int arb_pairs bool)
    (fun (seed, pairs, deleted) ->
      let key = Key.random (Rng.create seed) and vv = vv_of_pairs pairs in
      Digest.entry_crc key vv deleted = chained_entry_crc key vv deleted)

let test_entry_crc_no_alloc () =
  let key = Key.random (Rng.create 0xc4c) in
  let widest =
    List.fold_left
      (fun vv node -> Vv.bump vv ~node)
      Vv.empty
      (List.init Vv.max_entries (fun i -> 1000 + i))
  in
  Alcotest.(check int) "widest vector" (chained_entry_crc key widest true)
    (Digest.entry_crc key widest true);
  let vv = vv_of_pairs [ (1, 2); (5, 0); (9, 3) ] in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    acc := !acc lxor Digest.entry_crc key vv false
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !acc);
  Alcotest.(check bool)
    (Printf.sprintf "1000 calls allocate nothing (%.0f words)" words)
    true (words < 16.)

(* The range's entries, for the fold. *)
let in_range m ~lo ~hi f =
  Vmap.iter m (fun k e -> if Key.in_interval k ~lo ~hi then f k e)

(* The whole table, then arcs between random keys: eleven ranges, more
   than the table keeps summed, so probing them in turn evicts. *)
let probe_ranges rng =
  (Key.zero, Key.zero)
  :: List.init 10 (fun _ -> (Key.random rng, Key.random rng))

(* Every depth from the root to the deepest digest probe, each at the
   bucket of a held key (so deep buckets are not empty) and at a random
   prefix: the children and the key listing must equal the fold's. *)
let range_agrees m keys rng (lo, hi) =
  let ok = ref true in
  for bits = 0 to Digest.max_bits - Digest.fanout_bits do
    let held = Digest.hash_bits keys.(Rng.int rng (Array.length keys)) in
    List.iter
      (fun prefix ->
        let iter = in_range m ~lo ~hi in
        if
          Vmap.children m ~lo ~hi ~prefix ~bits
          <> Digest.children ~iter ~prefix ~bits
          || Vmap.items m ~lo ~hi ~prefix ~bits
             <> Digest.items ~iter ~prefix ~bits
        then ok := false)
      [ held lsr (Digest.max_bits - bits); Rng.int rng (1 lsl bits) ]
  done;
  !ok

(* 64 node handles: merged with any vector holding another node, the
   result cannot be encoded, so the change is refused. *)
let too_wide =
  List.fold_left
    (fun vv node -> Vv.bump vv ~node)
    Vv.empty
    (List.init Vv.max_entries (fun i -> 100 + i))

(* A seeded run of every kind of change over a small key pool, probing
   as it goes, checked range by range; [true] when every probe agreed
   with the fold. *)
let digest_scenario m seed =
  let rng = Rng.create seed in
  let keys = Array.init 48 (fun _ -> Key.random rng) in
  let ranges = Array.of_list (probe_ranges rng) in
  let ok = ref true in
  for step = 1 to 240 do
    let key = keys.(Rng.int rng (Array.length keys)) in
    let cur =
      match Vmap.find m ~key with Some e -> e.Vmap.vv | None -> Vv.empty
    in
    let data () = if Rng.int rng 4 = 0 then None else some "x" in
    (match Rng.int rng 7 with
    | 0 | 1 ->
        ignore
          (Vmap.write m ~key ~node:(Rng.int rng 4) ~incoming:Vv.empty
             ~data:(data ()))
    | 2 ->
        (* dominating *)
        let vv = Vv.bump cur ~node:(Rng.int rng 8) in
        ignore (Vmap.apply m ~key ~vv ~data:(data ()))
    | 3 ->
        (* equal, or dominated by a held vector *)
        ignore (Vmap.apply m ~key ~vv:cur ~data:(data ()));
        ignore (Vmap.apply m ~key ~vv:Vv.empty ~data:(data ()))
    | 4 ->
        (* concurrent: wins the tiebreak and installs, or loses and only
           merges its vector in *)
        let vv = vv_of_pairs [ (10 + Rng.int rng 4, Rng.int rng 3) ] in
        ignore (Vmap.apply m ~key ~vv ~data:(data ()))
    | 5 ->
        ignore (Vmap.apply m ~key ~vv:too_wide ~data:(data ()));
        ignore (Vmap.write m ~key ~node:1 ~incoming:too_wide ~data:(data ()))
    | _ ->
        let lo, hi = ranges.(Rng.int rng (Array.length ranges)) in
        let bits = 4 * Rng.int rng 3 in
        let prefix = Rng.int rng (1 lsl bits) in
        if
          Vmap.children m ~lo ~hi ~prefix ~bits
          <> Digest.children ~iter:(in_range m ~lo ~hi) ~prefix ~bits
        then ok := false);
    if step mod 40 = 0 then
      Array.iter
        (fun r -> if not (range_agrees m keys rng r) then ok := false)
        ranges
  done;
  !ok

let prop_digests_incremental =
  QCheck.Test.make ~name:"Vmap.children = the fold, in RAM" ~count:25
    QCheck.int (fun seed -> digest_scenario (Vmap.create ()) seed)

let tmp_ctr = ref 0

let with_store f =
  incr tmp_ctr;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "d2-sync-%d-%d" (Unix.getpid ()) !tmp_ctr)
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
    | _ -> Unix.unlink path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* A restarted disk table: its recovered blocks enter under the empty
   vector, then take the same changes and probes. *)
let prop_digests_recovered =
  QCheck.Test.make ~name:"Vmap.children = the fold, after create ~disk"
    ~count:8 QCheck.int (fun seed ->
      with_store (fun dir ->
          let st = Store.create ~dir () in
          let rng = Rng.create seed in
          for _ = 1 to 64 do
            ignore
              (Vmap.write (Vmap.create ~disk:st ()) ~key:(Key.random rng)
                 ~node:1 ~incoming:Vv.empty ~data:(some "old"))
          done;
          Store.close st;
          let st = Store.create ~dir () in
          let ok = digest_scenario (Vmap.create ~disk:st ()) seed in
          Store.close st;
          ok))

(* Two domains write while a third probes, building ranges as the
   writes land and evicting fresh ones; once the writers stop, every
   cached range must agree with the fold. *)
let test_digests_concurrent () =
  let m = Vmap.create () in
  let rng = Rng.create 0xc0c in
  let keys = Array.init 2048 (fun _ -> Key.random rng) in
  let fixed = List.filteri (fun i _ -> i < 3) (probe_ranges rng) in
  List.iter
    (fun (lo, hi) -> ignore (Vmap.children m ~lo ~hi ~prefix:0 ~bits:0))
    (List.tl fixed);
  let stop = Atomic.make false in
  let writer node () =
    let rng = Rng.create node in
    for i = 1 to 20_000 do
      let key = keys.(Rng.int rng (Array.length keys)) in
      if i mod 3 = 0 then
        ignore
          (Vmap.apply m ~key
             ~vv:(vv_of_pairs [ (Rng.int rng 16, Rng.int rng 3) ])
             ~data:(some "c"))
      else
        ignore
          (Vmap.write m ~key ~node ~incoming:Vv.empty
             ~data:(if i mod 7 = 0 then None else some "w"))
    done
  in
  let prober () =
    let rng = Rng.create 0x9b0 and rounds = ref 0 in
    while not (Atomic.get stop) do
      List.iter
        (fun (lo, hi) ->
          ignore (Vmap.children m ~lo ~hi ~prefix:0 ~bits:0);
          ignore (Vmap.children m ~lo ~hi ~prefix:(!rounds land 15) ~bits:4))
        fixed;
      if !rounds mod 4 = 0 then
        ignore
          (Vmap.children m ~lo:(Key.random rng) ~hi:(Key.random rng)
             ~prefix:0 ~bits:0);
      incr rounds
    done;
    !rounds
  in
  let p = Domain.spawn prober in
  let a = Domain.spawn (writer 1) and b = Domain.spawn (writer 2) in
  Domain.join a;
  Domain.join b;
  Atomic.set stop true;
  Alcotest.(check bool) "prober ran" true (Domain.join p > 0);
  List.iter
    (fun r ->
      Alcotest.(check bool) "range agrees with the fold" true
        (range_agrees m keys rng r))
    fixed

(* Partitions take the top hash bits and a partition's table its
   bucket from the low ones, so 16k random keys spread over every
   table's buckets; partitions keyed on the low bits left each table
   8 of its 256 buckets, with chains 65 long. *)
let test_partition_chains () =
  let m = Vmap.create () in
  let rng = Rng.create 0x16c in
  for _ = 1 to 16_384 do
    ignore
      (Vmap.write m ~key:(Key.random rng) ~node:1 ~incoming:Vv.empty ~data:None)
  done;
  let longest = Vmap.longest_chain m in
  Alcotest.(check bool)
    (Printf.sprintf "longest chain %d <= 12" longest)
    true (longest <= 12)

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
  match read (Node.vmap c.nodes.(n)) ~key with
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
  (* Deterministic on the mem transport: the digest sums, probe order
     and session schedule fix every frame, so any change to how digests
     are computed that alters the traffic shows here. *)
  Alcotest.(check (triple int int int))
    "repair (frames, bytes, copies moved)" (9817, 1367609, 23)
    (frames, bytes, moved);
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
          ~data:(some (data_v 2 key))
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

(* A quorum read over a concurrent pair: two copies of one key stamped
   by different writers, so neither vector dominates.  Repair is off, so
   only the read can bring the replicas it consulted onto one (vector,
   bytes): every one must end with the reply's bytes under the owner's
   vector — equal bytes under different vectors would send the block
   again in the next anti-entropy session. *)
let quorum_read_converges ~q ~concurrent_on () =
  let c = boot ~n:9 ~extra:3 ~config:(static_config ~repair_interval:0.0) () in
  let seeds = List.init 9 Fun.id in
  let client =
    Client.create (Mem.endpoint c.net ~node:9) ~replicas:3 ~rpc_timeout:5.0
      ~seeds ()
  in
  let ring = ring_of_live c ~dead:[] in
  let key = Key.random (Rng.create 0xc0c) in
  let group = Ring.successors ring key 3 in
  (match Client.put client ~key ~data:(data_v 1 key) with
  | `Ok copies -> Alcotest.(check int) "cc: seed put copies" 3 copies
  | `Failed -> Alcotest.fail "cc: seed put failed");
  (* Two writers outside the group stamp concurrent successors of the
     seed's vector, as two coordinators racing through a membership
     change would. *)
  let writers = List.filter (fun n -> not (List.mem n group)) seeds in
  List.iteri
    (fun i n ->
      let w = List.nth writers i in
      let vv = Vv.bump (entry_vv c n key) ~node:w in
      let installed, _ =
        Vmap.apply (Node.vmap c.nodes.(n)) ~key ~vv
          ~data:(some (Printf.sprintf "w%d:%s" w (Key.to_string key)))
      in
      if not installed then Alcotest.fail "cc: injected copy not installed")
    (concurrent_on group);
  let qclient =
    Client.create (Mem.endpoint c.net ~node:10) ~replicas:3 ~quorum_r:q
      ~rpc_timeout:5.0 ~seeds ()
  in
  let reply =
    match Client.get qclient ~key with
    | `Found d -> d
    | `Missing | `Failed -> Alcotest.fail "cc: quorum read failed"
  in
  run_for c 2.0;
  let owner = List.hd group in
  List.iter
    (fun n ->
      Alcotest.(check (option string))
        (Printf.sprintf "cc: node %d holds the reply's bytes" n)
        (Some reply)
        (Blockstore.get (Node.store c.nodes.(n)) ~key);
      Alcotest.(check bool)
        (Printf.sprintf "cc: node %d vectors equal" n)
        true
        (Vv.compare_vv (entry_vv c n key) (entry_vv c owner key) = Vv.Equal))
    (List.filteri (fun i _ -> i < q) group);
  Array.iter Node.stop c.nodes

(* q = 2 consults the owner and its first successor: the pair sits on
   exactly those two. *)
let test_quorum_read_converges_q2 =
  quorum_read_converges ~q:2 ~concurrent_on:(fun g ->
      List.filteri (fun i _ -> i < 2) g)

(* q = 3: the pair sits on both successors, the owner holds the older
   seed copy both dominate. *)
let test_quorum_read_converges_q3 =
  quorum_read_converges ~q:3 ~concurrent_on:List.tl

(* A consulted replica that has never seen the key (its copy lost, or
   a fan-out that never reached it) answers with the empty vector,
   which covers nothing: the quorum read pushes it the owner's copy. *)
let test_quorum_read_fills_empty_replica () =
  let c = boot ~n:9 ~extra:3 ~config:(static_config ~repair_interval:0.0) () in
  let ring = ring_of_live c ~dead:[] in
  let key = Key.random (Rng.create 0xe3e) in
  let owner, s1 =
    match Ring.successors ring key 2 with
    | [ o; s ] -> (o, s)
    | _ -> Alcotest.fail "fill: ring too small"
  in
  let installed, _ =
    Vmap.apply (Node.vmap c.nodes.(owner)) ~key
      ~vv:(Vv.bump Vv.empty ~node:owner)
      ~data:(some (data_v 1 key))
  in
  Alcotest.(check bool) "fill: owner copy installed" true installed;
  let qclient =
    Client.create (Mem.endpoint c.net ~node:10) ~replicas:3 ~quorum_r:2
      ~rpc_timeout:5.0 ~seeds:(List.init 9 Fun.id) ()
  in
  (match Client.get qclient ~key with
  | `Found d -> Alcotest.(check string) "fill: quorum read" (data_v 1 key) d
  | `Missing | `Failed -> Alcotest.fail "fill: quorum read failed");
  run_for c 2.0;
  Alcotest.(check (option string))
    "fill: empty replica filled by the read"
    (Some (data_v 1 key))
    (Blockstore.get (Node.store c.nodes.(s1)) ~key);
  Alcotest.(check bool)
    "fill: vectors equal" true
    (Vv.compare_vv (entry_vv c s1 key) (entry_vv c owner key) = Vv.Equal);
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
          QCheck_alcotest.to_alcotest prop_entry_crc_chained;
          Alcotest.test_case "entry_crc allocates nothing" `Quick
            test_entry_crc_no_alloc;
          QCheck_alcotest.to_alcotest prop_digests_incremental;
          QCheck_alcotest.to_alcotest prop_digests_recovered;
          Alcotest.test_case "digests under concurrent writes" `Quick
            test_digests_concurrent;
          Alcotest.test_case "partition tables use their buckets" `Quick
            test_partition_chains;
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
          Alcotest.test_case "quorum read converges a concurrent pair (q=2)"
            `Quick test_quorum_read_converges_q2;
          Alcotest.test_case "quorum read converges a concurrent pair (q=3)"
            `Quick test_quorum_read_converges_q3;
          Alcotest.test_case "quorum read fills a replica without the key"
            `Quick test_quorum_read_fills_empty_replica;
          Alcotest.test_case "write quorum gates on acked copies" `Quick
            test_write_quorum;
        ] );
    ]
