(* The anti-entropy subsystem end to end: the version's total order
   and codec (qcheck), order-independence of replica conflict
   resolution, and deterministic mem-transport cluster runs — kill
   churn with repair restoring every replica group to r, a repair-off
   control that stays under-replicated, partition-heal converging
   replicas byte-identically, quorum reads performing inline
   read-repair, and a later write beating an older copy stamped
   elsewhere. *)

module Key = D2_keyspace.Key
module Rng = D2_util.Rng
module Ring = D2_dht.Ring
module World = D2_net.Mem_world
module Node = World.Node
module Client = World.Client
module Blockstore = D2_net.Blockstore
module Version = D2_sync.Version
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

(* {1 Versions} *)

(* A version stamped by [node] at [us] µs (at least 1), the way a
   coordinator stamps one; the pair is the printable counterexample. *)
let version_of (us, node) =
  Version.next Version.zero ~node ~now:(float_of_int us *. 1e-6)

let arb_version = QCheck.(pair (int_bound 1_000_000) (int_bound 20))

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec roundtrip" ~count:500 arb_version (fun a ->
      let a = version_of a in
      let buf = Bytes.create Version.size in
      Version.encode_into a buf ~off:0;
      match Version.decode buf ~off:0 with
      | Some a' -> Version.equal a a'
      | None -> false)

(* The stamp a coordinator gives a key's next write grows past the
   current one, and follows the clock when the clock is ahead. *)
let prop_next_grows =
  QCheck.Test.make ~name:"next outgrows the current version" ~count:500
    QCheck.(triple arb_version (int_bound 20) (int_bound 2_000_000))
    (fun (cur, node, us) ->
      let cur = version_of cur in
      let v = Version.next cur ~node ~now:(float_of_int us *. 1e-6) in
      Version.compare v cur > 0 && v.Version.stamp >= min us (cur.stamp + 1))

(* Replica conflict resolution is order-independent: two replicas that
   apply the same pair of stamped copies in opposite orders end with
   the same version and the same bytes — the convergence argument the
   whole subsystem rests on. *)
let prop_apply_order_independent =
  QCheck.Test.make ~name:"Vmap.apply order-independent" ~count:300
    QCheck.(pair arb_version arb_version)
    (fun (a, b) ->
      let va = version_of a and vb = version_of b in
      (* Equal versions with different bytes never arise: a node stamps
         each write of a key above the last. *)
      QCheck.assume (not (Version.equal va vb));
      let key = Key.random (Rng.create 0x5eed) in
      let run copies =
        let m = Vmap.create () in
        List.iter
          (fun (version, data) ->
            ignore (Vmap.apply m ~key ~version ~data:(some data)))
          copies;
        match read m ~key with
        | Some (e, bytes) -> (bytes, e.Vmap.version)
        | None -> (None, Version.zero)
      in
      let b1, v1 = run [ (va, "A"); (vb, "B") ] in
      let b2, v2 = run [ (vb, "B"); (va, "A") ] in
      b1 = b2 && Version.equal v1 v2)

(* {1 Two domains, one key}

   Domain siblings share one table and stamp with the same node id.
   Two domains write one key while a third reads it throughout.  The
   clock stands still at 0, so each write's stamp is the last one + 1:
   every read must return the bytes of the write whose stamp its
   version holds, and the key must end with the bytes of the write
   that got the highest stamp. *)

let test_two_domain_writes () =
  let node = 7 and writes = 200 and trials = 50 in
  let key = Key.random (Rng.create 0x2d0) in
  for trial = 1 to trials do
    let m = Vmap.create () in
    let writer tag () =
      List.init writes (fun i ->
          let data = Printf.sprintf "%c%d.%d" tag trial i in
          let version, _, _ =
            Vmap.write m ~key ~node ~now:0.0 ~data:(some data)
          in
          (version.Version.stamp, data))
    in
    let stop = Atomic.make false in
    let reader () =
      let seen = ref [] in
      while not (Atomic.get stop) do
        match read m ~key with
        | Some (e, Some data) ->
            seen := (e.Vmap.version.stamp, data) :: !seen
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
    let by_stamp = Hashtbl.create (2 * writes) in
    List.iter
      (fun (stamp, data) ->
        if Hashtbl.mem by_stamp stamp then
          Alcotest.failf "two domains: stamp %d given twice" stamp;
        Hashtbl.replace by_stamp stamp data)
      log;
    List.iter
      (fun (stamp, data) ->
        Alcotest.(check (option string))
          "two domains: read bytes match the version's write"
          (Hashtbl.find_opt by_stamp stamp)
          (Some data))
      seen;
    let final =
      match read m ~key with
      | Some (e, bytes) -> (e.Vmap.version.stamp, bytes)
      | None -> Alcotest.fail "two domains: key missing"
    in
    Alcotest.(check (pair int (option string)))
      "two domains: the highest stamp's bytes win"
      (2 * writes, Hashtbl.find_opt by_stamp (2 * writes))
      final
  done

(* {1 Range digests}

   A live table answers repair probes from per-range cells it keeps
   current on every change ({!Vmap.children}); the fold over the same
   entries ({!Digest.children} over {!Vmap.iter}) is the definition it
   must match, at every depth and on every range, through every kind
   of change a table sees. *)

(* The per-entry CRC as it was first written: the key, the encoded
   version and the flag, chained through three CRC calls. *)
let chained_entry_crc key version deleted =
  let crc = Crc32c.string (Key.to_string key) ~pos:0 ~len:Key.size in
  let vb = Bytes.create Version.size in
  Version.encode_into version vb ~off:0;
  let crc = Crc32c.bytes ~crc vb ~pos:0 ~len:Version.size in
  Crc32c.string ~crc (if deleted then "\001" else "\000") ~pos:0 ~len:1

let prop_entry_crc_chained =
  QCheck.Test.make ~name:"entry_crc = chained CRC of key, version, flag"
    ~count:500
    QCheck.(triple int arb_version bool)
    (fun (seed, v, deleted) ->
      let key = Key.random (Rng.create seed) and v = version_of v in
      Digest.entry_crc key v deleted = chained_entry_crc key v deleted)

let test_entry_crc_no_alloc () =
  let key = Key.random (Rng.create 0xc4c) in
  let v = version_of (123_456, 9) in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    acc := !acc lxor Digest.entry_crc key v false
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
      match Vmap.find m ~key with
      | Some e -> e.Vmap.version
      | None -> Version.zero
    in
    let data () = if Rng.int rng 4 = 0 then None else some "x" in
    (match Rng.int rng 6 with
    | 0 | 1 ->
        ignore
          (Vmap.write m ~key ~node:(Rng.int rng 4) ~now:(Rng.float rng 1e-3)
             ~data:(data ()))
    | 2 ->
        (* larger *)
        let version = Version.next cur ~node:(Rng.int rng 8) ~now:0.0 in
        ignore (Vmap.apply m ~key ~version ~data:(data ()))
    | 3 ->
        (* equal, or smaller than a held version *)
        ignore (Vmap.apply m ~key ~version:cur ~data:(data ()));
        ignore (Vmap.apply m ~key ~version:Version.zero ~data:(data ()))
    | 4 ->
        (* stamped elsewhere: larger and installed, or smaller and
           ignored *)
        let version = version_of (Rng.int rng 1000, 10 + Rng.int rng 4) in
        ignore (Vmap.apply m ~key ~version ~data:(data ()))
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

(* A restarted disk table: its recovered blocks enter under the zero
   version, then take the same changes and probes. *)
let prop_digests_recovered =
  QCheck.Test.make ~name:"Vmap.children = the fold, after create ~disk"
    ~count:8 QCheck.int (fun seed ->
      with_store (fun dir ->
          let st = Store.create ~dir () in
          let rng = Rng.create seed in
          for _ = 1 to 64 do
            ignore
              (Vmap.write (Vmap.create ~disk:st ()) ~key:(Key.random rng)
                 ~node:1 ~now:0.0 ~data:(some "old"))
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
             ~version:(version_of (Rng.int rng 20_000, Rng.int rng 16))
             ~data:(some "c"))
      else
        ignore
          (Vmap.write m ~key ~node ~now:(float_of_int i *. 1e-6)
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
      (Vmap.write m ~key:(Key.random rng) ~node:1 ~now:0.0 ~data:None)
  done;
  let longest = Vmap.longest_chain m in
  Alcotest.(check bool)
    (Printf.sprintf "longest chain %d <= 12" longest)
    true (longest <= 12)

(* {1 Cluster harness} *)

let version_at w n key =
  match read (Node.vmap (World.nodes w).(n)) ~key with
  | Some (e, _) -> e.Vmap.version
  | None -> Version.zero

(* The world's virtual clock, as a coordinator reads it. *)
let now w = D2_net.Transport_mem.now (World.node_endpoint w 0)

(* Every key's replica group — the r successors on the live ring —
   holds byte-identical winning data under one version. *)
let check_audit ~label w expect =
  match World.audit w expect with
  | [] -> ()
  | (key, n, _, bytes) :: _ as faults ->
      Alcotest.failf "%s: %d replica(s) off, first node %d for %s (%s)" label
        (List.length faults) n (Key.to_string key)
        (match bytes with None -> "missing" | Some _ -> "bytes or version")

(* {1 Audit self-test: the audit sees what it exists to see} *)

let test_audit_catches_faults () =
  let config =
    {
      D2_net.Node.replicas = 3;
      probe_interval = 1000.0;
      rpc_timeout = 1.0;
      repair_interval = 0.0;
    }
  in
  let w = World.boot ~config ~n:5 () in
  let client =
    Client.create (World.endpoint w) ~replicas:3 ~rpc_timeout:5.0
      ~seeds:(List.init 5 Fun.id) ()
  in
  let rng = Rng.create 0xa0d in
  let expect =
    List.init 8 (fun i ->
        let key = Key.random rng in
        let data = Printf.sprintf "a%d:%s" i (Key.to_string key) in
        (match Client.put client ~key ~data with
        | `Ok copies -> Alcotest.(check int) "audit: put copies" 3 copies
        | `Failed -> Alcotest.fail "audit: put failed");
        (key, data))
  in
  Alcotest.(check int) "audit: a clean world reports nothing" 0
    (List.length (World.audit w expect));
  (* A replica other than the owner, so the group's version stands. *)
  let replica_of (key, _) =
    List.nth (Ring.successors (World.live_ring w) key 3) 1
  in
  let corrupt = List.nth expect 2 and emptied = List.nth expect 5 in
  let bad = replica_of corrupt and gone = replica_of emptied in
  ignore
    (Vmap.write (Node.vmap (World.nodes w).(bad)) ~key:(fst corrupt) ~node:bad
       ~now:(now w) ~data:(some "other bytes"));
  (match World.audit w expect with
  | [ (key, n, _, Some d) ] ->
      Alcotest.(check bool) "audit: the corrupted key" true
        (Key.compare key (fst corrupt) = 0);
      Alcotest.(check int) "audit: the corrupted replica" bad n;
      Alcotest.(check string) "audit: its bytes" "other bytes" d
  | faults ->
      Alcotest.failf "audit: want one mismatch, got %d" (List.length faults));
  ignore
    (Vmap.write (Node.vmap (World.nodes w).(gone)) ~key:(fst emptied)
       ~node:gone ~now:(now w) ~data:None);
  Alcotest.(check bool) "audit: the removed copy reads missing" true
    (List.exists
       (fun (key, n, _, bytes) ->
         Key.compare key (fst emptied) = 0 && n = gone && bytes = None)
       (World.audit w expect));
  World.stop w

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
  let w = World.boot ~config ~n:churn_n () in
  let client =
    Client.create (World.endpoint w) ~replicas:3 ~rpc_timeout:5.0 ~retries:8
      ~seeds:(List.init churn_n Fun.id)
      ()
  in
  let keys = Array.init 120 (fun _ -> Key.zero) in
  let () =
    let rng = Rng.create 0xbeef in
    Array.iteri (fun i _ -> keys.(i) <- Key.random rng) keys
  in
  let expect = Hashtbl.create 64 in
  let full = World.live_ring w in
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
  (* Y, chosen on the full ring before X dies: the owner of the first
     later key X does not own. *)
  let y =
    let rec pick i =
      let cand = Ring.successor full keys.(i) in
      if cand <> x then cand else pick (i + 1)
    in
    pick 1
  in
  World.partition w (fun a b -> a = x <> (b = x));
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
  World.heal w;
  World.run w 5.0;
  (* Phase 3: kill X outright; after detection converges, load 30 new
     blocks (their groups may include Y), then kill Y mid-life. *)
  World.kill w x;
  World.run w 20.0;
  for i = 90 to 119 do
    let key = keys.(i) in
    match Client.put client ~key ~data:(data_v 1 key) with
    | `Ok _ -> Hashtbl.replace expect key (data_v 1 key)
    | `Failed -> Alcotest.fail "churn: post-kill put failed"
  done;
  World.kill w y;
  (* Give failure detection and the rotating repair schedule time to
     converge: N = 90 virtual seconds covers dozens of per-node repair
     rounds at the 1 s interval. *)
  World.run w 90.0;
  (w, List.of_seq (Hashtbl.to_seq expect))

let test_churn_repair_restores_r () =
  let w, expect = churn_run ~repair_interval:1.0 in
  check_audit ~label:"repair on" w expect;
  let frames, bytes, moved =
    Array.to_list (World.nodes w)
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
     are computed that alters the traffic shows here.  The two killed
     nodes count nothing after their kill: their clocks stop with
     them. *)
  Alcotest.(check (triple int int int))
    "repair (frames, bytes, copies moved)" (9810, 1366840, 23)
    (frames, bytes, moved);
  World.stop w

let test_churn_control_stays_under_replicated () =
  let w, expect = churn_run ~repair_interval:0.0 in
  let degraded =
    World.audit w expect
    |> List.map (fun (key, _, _, _) -> key)
    |> List.sort_uniq Key.compare |> List.length
  in
  Alcotest.(check bool)
    (Printf.sprintf "repair off leaves groups below r (%d degraded)" degraded)
    true (degraded > 0);
  World.stop w

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
  let w = World.boot ~config:(static_config ~repair_interval:1.0) ~n:9 () in
  let nodes = World.nodes w in
  let client =
    Client.create (World.endpoint w) ~replicas:3 ~rpc_timeout:5.0
      ~seeds:(List.init 9 Fun.id) ()
  in
  let rng = Rng.create 0x1ea1 in
  let keys = Array.init 40 (fun _ -> Key.random rng) in
  let ring = World.live_ring w in
  Array.iter
    (fun key ->
      match Client.put client ~key ~data:(data_v 1 key) with
      | `Ok copies -> Alcotest.(check int) "heal: seed put copies" 3 copies
      | `Failed -> Alcotest.fail "heal: seed put failed")
    keys;
  (* Sever P and overwrite every block P replicates but does not own:
     the owner acks exactly 2 copies (itself + the reachable replica)
     and P is left holding v1 under a smaller version. *)
  let p = Ring.successor ring keys.(0) in
  let stale =
    Array.to_list keys
    |> List.filter (fun key ->
           let group = Ring.successors ring key 3 in
           List.mem p group && Ring.successor ring key <> p)
  in
  Alcotest.(check bool) "heal: stale set non-empty" true (stale <> []);
  World.partition w (fun a b -> a = p <> (b = p));
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
  World.heal w;
  (* P still holds v1 the instant the cable is back. *)
  List.iter
    (fun key ->
      Alcotest.(check (option string))
        "heal: P stale before repair"
        (Some (data_v 1 key))
        (Blockstore.get (Node.store nodes.(p)) ~key))
    stale;
  (* An evicted-but-alive peer re-enters via Join — re-serving P
     re-announces it to everyone whose view dropped it. *)
  Node.serve nodes.(p);
  World.run w 40.0;
  let expect =
    Array.to_list keys
    |> List.map (fun key ->
           (key, data_v (if List.mem key stale then 2 else 1) key))
  in
  check_audit ~label:"partition heal" w expect;
  World.stop w

(* {1 Quorum reads: read-repair without anti-entropy} *)

let test_quorum_read_repair () =
  (* Repair off: the only mechanism allowed to fix the stale replica
     is the quorum read's inline push. *)
  let w = World.boot ~config:(static_config ~repair_interval:0.0) ~n:9 () in
  let nodes = World.nodes w in
  let seeds = List.init 9 Fun.id in
  let client =
    Client.create (World.endpoint w) ~replicas:3 ~rpc_timeout:5.0
      ~seeds ()
  in
  let ring = World.live_ring w in
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
     timeout): install a newer stamped copy directly on the other two
     replicas, exactly the state a lost fan-out frame leaves. *)
  let v2 = Version.next (version_at w owner key) ~node:owner ~now:(now w) in
  List.iter
    (fun n ->
      let installed, _ =
        Vmap.apply (Node.vmap nodes.(n)) ~key ~version:v2
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
  World.run w 2.0;
  Alcotest.(check (option string))
    "rr: replica still stale after plain read"
    (Some (data_v 1 key))
    (Blockstore.get (Node.store nodes.(p)) ~key);
  (* quorum_r = 2: the read returns the newer copy and pushes it to the
     stale replica off the reply path. *)
  let qclient =
    Client.create (World.endpoint w) ~replicas:3 ~quorum_r:2
      ~rpc_timeout:5.0 ~seeds ()
  in
  (match Client.get qclient ~key with
  | `Found d -> Alcotest.(check string) "rr: quorum read wins" (data_v 2 key) d
  | `Missing | `Failed -> Alcotest.fail "rr: quorum read failed");
  World.run w 2.0;
  Alcotest.(check (option string))
    "rr: replica repaired by the read"
    (Some (data_v 2 key))
    (Blockstore.get (Node.store nodes.(p)) ~key);
  Alcotest.(check bool)
    "rr: versions converged" true
    (Version.equal (version_at w p key) (version_at w owner key));
  World.stop w

(* A quorum read over a concurrent pair: two copies of one key stamped
   by different writers, each on a replica that never saw the other.
   Repair is off, so only the read can bring the replicas it consulted
   onto one (version, bytes): every one must end with the reply's
   bytes under the owner's version — equal bytes under different
   versions would send the block again in the next anti-entropy
   session. *)
let quorum_read_converges ~q ~concurrent_on () =
  let w = World.boot ~config:(static_config ~repair_interval:0.0) ~n:9 () in
  let nodes = World.nodes w in
  let seeds = List.init 9 Fun.id in
  let client =
    Client.create (World.endpoint w) ~replicas:3 ~rpc_timeout:5.0
      ~seeds ()
  in
  let ring = World.live_ring w in
  let key = Key.random (Rng.create 0xc0c) in
  let group = Ring.successors ring key 3 in
  (match Client.put client ~key ~data:(data_v 1 key) with
  | `Ok copies -> Alcotest.(check int) "cc: seed put copies" 3 copies
  | `Failed -> Alcotest.fail "cc: seed put failed");
  (* Two writers outside the group stamp successors of the seed's
     version at one clock reading, as two coordinators racing through a
     membership change would: the larger writer handle wins the tie. *)
  let writers = List.filter (fun n -> not (List.mem n group)) seeds in
  List.iteri
    (fun i n ->
      let writer = List.nth writers i in
      let version =
        Version.next (version_at w n key) ~node:writer ~now:(now w)
      in
      let installed, _ =
        Vmap.apply (Node.vmap nodes.(n)) ~key ~version
          ~data:(some (Printf.sprintf "w%d:%s" writer (Key.to_string key)))
      in
      if not installed then Alcotest.fail "cc: injected copy not installed")
    (concurrent_on group);
  let qclient =
    Client.create (World.endpoint w) ~replicas:3 ~quorum_r:q
      ~rpc_timeout:5.0 ~seeds ()
  in
  let reply =
    match Client.get qclient ~key with
    | `Found d -> d
    | `Missing | `Failed -> Alcotest.fail "cc: quorum read failed"
  in
  World.run w 2.0;
  let owner = List.hd group in
  List.iter
    (fun n ->
      Alcotest.(check (option string))
        (Printf.sprintf "cc: node %d holds the reply's bytes" n)
        (Some reply)
        (Blockstore.get (Node.store nodes.(n)) ~key);
      Alcotest.(check bool)
        (Printf.sprintf "cc: node %d versions equal" n)
        true
        (Version.equal (version_at w n key) (version_at w owner key)))
    (List.filteri (fun i _ -> i < q) group);
  World.stop w

(* q = 2 consults the owner and its first successor: the pair sits on
   exactly those two. *)
let test_quorum_read_converges_q2 =
  quorum_read_converges ~q:2 ~concurrent_on:(fun g ->
      List.filteri (fun i _ -> i < 2) g)

(* q = 3: the pair sits on both successors, the owner holds the older
   seed copy both outgrow. *)
let test_quorum_read_converges_q3 =
  quorum_read_converges ~q:3 ~concurrent_on:List.tl

(* A consulted replica that has never seen the key (its copy lost, or
   a fan-out that never reached it) answers with the zero version,
   which covers nothing: the quorum read pushes it the owner's copy. *)
let test_quorum_read_fills_empty_replica () =
  let w = World.boot ~config:(static_config ~repair_interval:0.0) ~n:9 () in
  let nodes = World.nodes w in
  let ring = World.live_ring w in
  let key = Key.random (Rng.create 0xe3e) in
  let owner, s1 =
    match Ring.successors ring key 2 with
    | [ o; s ] -> (o, s)
    | _ -> Alcotest.fail "fill: ring too small"
  in
  let installed, _ =
    Vmap.apply (Node.vmap nodes.(owner)) ~key
      ~version:(Version.next Version.zero ~node:owner ~now:(now w))
      ~data:(some (data_v 1 key))
  in
  Alcotest.(check bool) "fill: owner copy installed" true installed;
  let qclient =
    Client.create (World.endpoint w) ~replicas:3 ~quorum_r:2
      ~rpc_timeout:5.0 ~seeds:(List.init 9 Fun.id) ()
  in
  (match Client.get qclient ~key with
  | `Found d -> Alcotest.(check string) "fill: quorum read" (data_v 1 key) d
  | `Missing | `Failed -> Alcotest.fail "fill: quorum read failed");
  World.run w 2.0;
  Alcotest.(check (option string))
    "fill: empty replica filled by the read"
    (Some (data_v 1 key))
    (Blockstore.get (Node.store nodes.(s1)) ~key);
  Alcotest.(check bool)
    "fill: versions equal" true
    (Version.equal (version_at w s1 key) (version_at w owner key));
  World.stop w

(* Write quorums on a 3-node ring, where routing cannot work around a
   severed replica: every group is the whole cluster, so with one node
   unreachable a put or a remove settles at 2 acks — enough for w=2, a
   hard failure for w=3. *)
let test_write_quorum () =
  let w = World.boot ~config:(static_config ~repair_interval:0.0) ~n:3 () in
  let seeds = [ 0; 1; 2 ] in
  let ring = World.live_ring w in
  let key = Key.random (Rng.create 0x3a7) in
  let z = List.nth (Ring.successors ring key 3) 1 in
  let wclient quorum_w =
    Client.create (World.endpoint w) ~replicas:3 ~quorum_w
      ~rpc_timeout:5.0 ~retries:2 ~seeds ()
  in
  let w3 = wclient 3 in
  let w2 = wclient 2 in
  (match Client.put w3 ~key ~data:(data_v 1 key) with
  | `Ok copies -> Alcotest.(check int) "wq: w=3 put, all up" 3 copies
  | `Failed -> Alcotest.fail "wq: w=3 put failed with the cluster up");
  World.partition w (fun a b -> a = z <> (b = z));
  (match Client.put w2 ~key ~data:(data_v 2 key) with
  | `Ok copies -> Alcotest.(check int) "wq: w=2 put copies" 2 copies
  | `Failed -> Alcotest.fail "wq: w=2 put failed");
  (match Client.put w3 ~key ~data:(data_v 3 key) with
  | `Failed -> ()
  | `Ok _ -> Alcotest.fail "wq: w=3 put succeeded with a severed replica");
  (match Client.remove w3 ~key with
  | `Failed -> ()
  | `Ok _ ->
      Alcotest.fail "wq: w=3 remove succeeded with a severed replica");
  World.heal w;
  World.stop w

(* A coordinator holding no entry for a key (a fresh joiner that became
   its owner) writes over replicas that hold an older copy, stamped one
   virtual second earlier by a node outside the group.  The later write
   must win on every replica, through repair and a quorum read. *)
let test_fresh_owner_write_wins () =
  (* Each node's first repair session starts 20 virtual seconds after
     boot, once the put below is acked: until then the owner holds no
     entry for the key, as a joiner that coordinates before its first
     session does not. *)
  let w = World.boot ~config:(static_config ~repair_interval:20.0) ~n:9 () in
  let nodes = World.nodes w in
  let seeds = List.init 9 Fun.id in
  let ring = World.live_ring w in
  let key = Key.random (Rng.create 0x10a) in
  let group = Ring.successors ring key 3 in
  let owner = List.hd group in
  let outside = List.find (fun n -> not (List.mem n group)) seeds in
  let older = Version.next Version.zero ~node:outside ~now:(now w -. 1.0) in
  List.iter
    (fun n ->
      let installed, _ =
        Vmap.apply (Node.vmap nodes.(n)) ~key ~version:older ~data:(some "A")
      in
      Alcotest.(check bool) "fresh: older copy installed" true installed)
    (List.tl group);
  Alcotest.(check bool) "fresh: the owner holds no entry" true
    (Vmap.find (Node.vmap nodes.(owner)) ~key = None);
  let client =
    Client.create (World.endpoint w) ~replicas:3 ~quorum_r:3 ~quorum_w:3
      ~rpc_timeout:5.0 ~seeds ()
  in
  (match Client.put client ~key ~data:"B" with
  | `Ok copies -> Alcotest.(check int) "fresh: put copies" 3 copies
  | `Failed -> Alcotest.fail "fresh: quorum-3 put failed");
  World.run w 45.0;
  List.iter
    (fun n ->
      Alcotest.(check (option string))
        (Printf.sprintf "fresh: node %d holds the later write" n)
        (Some "B")
        (Blockstore.get (Node.store nodes.(n)) ~key))
    group;
  (match Client.get client ~key with
  | `Found d -> Alcotest.(check string) "fresh: quorum read" "B" d
  | `Missing | `Failed -> Alcotest.fail "fresh: quorum read failed");
  World.stop w

let () =
  Alcotest.run "sync"
    [
      ( "version_stamps",
        [
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_next_grows;
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
        ] );
      ( "e2e",
        [
          Alcotest.test_case "the replica audit catches a bad or lost copy"
            `Quick test_audit_catches_faults;
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
          Alcotest.test_case "a fresh owner's write beats an older copy"
            `Quick test_fresh_owner_write_wins;
        ] );
    ]
