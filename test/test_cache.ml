(* Tests for the range-based lookup cache (§5) and the 30 s block
   cache (§3). *)

module Lookup_cache = D2_cache.Lookup_cache
module Block_cache = D2_cache.Block_cache
module Key = D2_keyspace.Key
module Rng = D2_util.Rng

let k_of_byte b = Key.of_string (String.make 1 (Char.chr b) ^ String.make 63 '\000')

(* {1 Lookup cache} *)

let test_hit_and_miss () =
  let c = Lookup_cache.create () in
  Alcotest.(check (option int)) "cold miss" None (Lookup_cache.lookup c ~now:0.0 (k_of_byte 15));
  Lookup_cache.insert c ~now:0.0 ~lo:(k_of_byte 10) ~hi:(k_of_byte 20) ~node:7;
  Alcotest.(check (option int)) "hit inside" (Some 7)
    (Lookup_cache.lookup c ~now:1.0 (k_of_byte 15));
  Alcotest.(check (option int)) "hi inclusive" (Some 7)
    (Lookup_cache.lookup c ~now:1.0 (k_of_byte 20));
  Alcotest.(check (option int)) "lo exclusive" None
    (Lookup_cache.lookup c ~now:1.0 (k_of_byte 10));
  Alcotest.(check (option int)) "outside" None
    (Lookup_cache.lookup c ~now:1.0 (k_of_byte 25));
  Alcotest.(check int) "hits" 2 (Lookup_cache.hits c);
  Alcotest.(check int) "misses" 3 (Lookup_cache.misses c)

let test_invalidate () =
  let c = Lookup_cache.create () in
  Lookup_cache.insert c ~now:0.0 ~lo:(k_of_byte 10) ~hi:(k_of_byte 20) ~node:1;
  Lookup_cache.insert c ~now:0.0 ~lo:(k_of_byte 20) ~hi:(k_of_byte 30) ~node:2;
  Alcotest.(check bool) "no covering range" false
    (Lookup_cache.invalidate c (k_of_byte 40));
  Alcotest.(check bool) "drops covering range" true
    (Lookup_cache.invalidate c (k_of_byte 15));
  Alcotest.(check (option int)) "range gone" None
    (Lookup_cache.lookup c ~now:1.0 (k_of_byte 15));
  Alcotest.(check (option int)) "other range survives" (Some 2)
    (Lookup_cache.lookup c ~now:1.0 (k_of_byte 25));
  Alcotest.(check bool) "second call finds nothing" false
    (Lookup_cache.invalidate c (k_of_byte 15))

let test_ttl_expiry () =
  let c = Lookup_cache.create ~ttl:100.0 () in
  Lookup_cache.insert c ~now:0.0 ~lo:(k_of_byte 10) ~hi:(k_of_byte 20) ~node:7;
  Alcotest.(check (option int)) "fresh" (Some 7)
    (Lookup_cache.lookup c ~now:99.0 (k_of_byte 15));
  Alcotest.(check (option int)) "expired" None
    (Lookup_cache.lookup c ~now:101.0 (k_of_byte 15));
  Alcotest.(check int) "expired entry evicted" 0 (Lookup_cache.entry_count c)

let test_wrap_range () =
  let c = Lookup_cache.create () in
  (* Range (200, 10] wraps around the top of the ring. *)
  Lookup_cache.insert c ~now:0.0 ~lo:(k_of_byte 200) ~hi:(k_of_byte 10) ~node:3;
  Alcotest.(check (option int)) "above lo" (Some 3)
    (Lookup_cache.lookup c ~now:1.0 (k_of_byte 250));
  Alcotest.(check (option int)) "below hi" (Some 3)
    (Lookup_cache.lookup c ~now:1.0 (k_of_byte 5));
  Alcotest.(check (option int)) "middle misses" None
    (Lookup_cache.lookup c ~now:1.0 (k_of_byte 100))

let test_full_ring_entry () =
  let c = Lookup_cache.create () in
  (* lo = hi: a single node owns everything. *)
  Lookup_cache.insert c ~now:0.0 ~lo:(k_of_byte 50) ~hi:(k_of_byte 50) ~node:0;
  Alcotest.(check (option int)) "any key" (Some 0)
    (Lookup_cache.lookup c ~now:1.0 (k_of_byte 200))

let test_multiple_ranges () =
  let c = Lookup_cache.create () in
  Lookup_cache.insert c ~now:0.0 ~lo:(k_of_byte 10) ~hi:(k_of_byte 20) ~node:1;
  Lookup_cache.insert c ~now:0.0 ~lo:(k_of_byte 20) ~hi:(k_of_byte 30) ~node:2;
  Lookup_cache.insert c ~now:0.0 ~lo:(k_of_byte 40) ~hi:(k_of_byte 50) ~node:4;
  Alcotest.(check (option int)) "range 1" (Some 1) (Lookup_cache.lookup c ~now:1.0 (k_of_byte 12));
  Alcotest.(check (option int)) "range 2" (Some 2) (Lookup_cache.lookup c ~now:1.0 (k_of_byte 25));
  Alcotest.(check (option int)) "gap" None (Lookup_cache.lookup c ~now:1.0 (k_of_byte 35));
  Alcotest.(check (option int)) "range 3" (Some 4) (Lookup_cache.lookup c ~now:1.0 (k_of_byte 45))

let test_miss_rate_and_reset () =
  let c = Lookup_cache.create () in
  Alcotest.(check (float 1e-9)) "unused" 0.0 (Lookup_cache.miss_rate c);
  ignore (Lookup_cache.lookup c ~now:0.0 (k_of_byte 1));
  Lookup_cache.insert c ~now:0.0 ~lo:(k_of_byte 0) ~hi:(k_of_byte 10) ~node:1;
  ignore (Lookup_cache.lookup c ~now:0.0 (k_of_byte 5));
  Alcotest.(check (float 1e-9)) "50%" 0.5 (Lookup_cache.miss_rate c);
  Lookup_cache.reset_stats c;
  Alcotest.(check int) "stats reset" 0 (Lookup_cache.hits c);
  Alcotest.(check bool) "entries kept" true (Lookup_cache.entry_count c > 0);
  Lookup_cache.clear c;
  Alcotest.(check int) "cleared" 0 (Lookup_cache.entry_count c)

let prop_cached_lookup_agrees_with_interval =
  QCheck.Test.make ~name:"cache agrees with ring-interval membership" ~count:300
    QCheck.(triple (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (lo, hi, probe) ->
      QCheck.assume (lo <> hi);
      let c = Lookup_cache.create () in
      let klo = k_of_byte lo and khi = k_of_byte hi and kp = k_of_byte probe in
      Lookup_cache.insert c ~now:0.0 ~lo:klo ~hi:khi ~node:1;
      let hit = Lookup_cache.lookup c ~now:1.0 kp = Some 1 in
      hit = Key.in_interval kp ~lo:klo ~hi:khi)

let test_lookup_mru_streak () =
  (* Repeated probes into the same range hit the MRU fast path; the
     fast path must honour insertion, expiry, purge, and clear exactly
     like the map search. *)
  let c = Lookup_cache.create ~ttl:100.0 () in
  Lookup_cache.insert c ~now:0.0 ~lo:(k_of_byte 10) ~hi:(k_of_byte 20) ~node:7;
  (* First hit primes the MRU; the rest are served from it. *)
  for _ = 1 to 5 do
    Alcotest.(check (option int)) "streak hit" (Some 7)
      (Lookup_cache.lookup c ~now:1.0 (k_of_byte 15))
  done;
  Alcotest.(check int) "hits counted on fast path" 5 (Lookup_cache.hits c);
  (* Expiry must not be served from the MRU. *)
  Alcotest.(check (option int)) "expired" None
    (Lookup_cache.lookup c ~now:101.0 (k_of_byte 15));
  (* Re-insert; a new insert after a hit must not leave a stale MRU. *)
  Lookup_cache.insert c ~now:200.0 ~lo:(k_of_byte 10) ~hi:(k_of_byte 20) ~node:8;
  Alcotest.(check (option int)) "fresh entry wins" (Some 8)
    (Lookup_cache.lookup c ~now:201.0 (k_of_byte 15));
  Lookup_cache.insert c ~now:200.0 ~lo:(k_of_byte 30) ~hi:(k_of_byte 40) ~node:9;
  Alcotest.(check (option int)) "other range still found" (Some 9)
    (Lookup_cache.lookup c ~now:201.0 (k_of_byte 35));
  Alcotest.(check (option int)) "first range still found" (Some 8)
    (Lookup_cache.lookup c ~now:201.0 (k_of_byte 12));
  (* clear drops the MRU too. *)
  Lookup_cache.clear c;
  Alcotest.(check (option int)) "cleared" None
    (Lookup_cache.lookup c ~now:201.0 (k_of_byte 15))

(* {2 Map oracle}

   The straightforward cache the flat arena replaced: a [Map] of
   entries keyed by range upper bound [hi], the whole map filtered on
   the 4*ttl purge, and an expired candidate evicted on the probe that
   finds it.  Like the arena, it first retries the entry that answered
   the last hit (until any mutation), which is observable when cached
   ranges overlap. *)
module Oracle = struct
  module M = Map.Make (Key)

  type entry = { lo : Key.t; node : int; expires : float }

  type t = {
    ttl : float;
    mutable entries : entry M.t;
    mutable mru : (Key.t * entry) option;
    mutable hits : int;
    mutable misses : int;
    mutable last_purge : float;
  }

  let create ~ttl =
    { ttl; entries = M.empty; mru = None; hits = 0; misses = 0; last_purge = 0.0 }

  let set t entries =
    t.entries <- entries;
    t.mru <- None

  (* The entry with the smallest hi >= key, if it covers the key. *)
  let covering t key =
    match M.find_first_opt (fun hi -> Key.compare hi key >= 0) t.entries with
    | Some (hi, e) when Key.in_interval key ~lo:e.lo ~hi -> Some (hi, e)
    | Some _ | None -> None

  let search t ~now key =
    match covering t key with
    | Some ((_, e) as hit) when e.expires > now ->
        t.hits <- t.hits + 1;
        t.mru <- Some hit;
        Some e.node
    | Some (hi, _) ->
        set t (M.remove hi t.entries);
        t.misses <- t.misses + 1;
        None
    | None ->
        t.misses <- t.misses + 1;
        None

  let lookup t ~now key =
    if now -. t.last_purge > 4.0 *. t.ttl then begin
      set t (M.filter (fun _ e -> e.expires > now) t.entries);
      t.last_purge <- now
    end;
    match t.mru with
    | Some (hi, e) when e.expires > now && Key.in_interval key ~lo:e.lo ~hi ->
        t.hits <- t.hits + 1;
        Some e.node
    | Some _ | None -> search t ~now key

  let insert t ~now ~lo ~hi ~node =
    let e = { lo; node; expires = now +. t.ttl } in
    let c = Key.compare lo hi in
    if c = 0 then set t (M.add Key.max_key { e with lo = Key.max_key } t.entries)
    else if c < 0 then set t (M.add hi e t.entries)
    else set t (M.add hi { e with lo = Key.max_key } (M.add Key.max_key e t.entries))

  let invalidate t key =
    match covering t key with
    | Some (hi, _) ->
        set t (M.remove hi t.entries);
        true
    | None -> false
end

(* The arena must behave exactly like the Map oracle over arbitrary
   insert/probe/invalidate sequences: same answers, same hit/miss
   counters, same live-entry counts (which pin the probe-time eviction
   of expired candidates), under adversarial TTLs, duplicate-hi
   replacement, wrapping ranges and time jumps big enough to trip the
   4*ttl purge.  Keys share long volume prefixes so the search's
   dynamic common-prefix offset is exercised, not just byte 0. *)
let prop_arena_matches_reference =
  let key_of (vol, a, b) =
    let buf = Bytes.make Key.size '\000' in
    Bytes.fill buf 0 16 (Char.chr (Char.code 'A' + (vol mod 3)));
    Bytes.set buf 20 (Char.chr (a land 0xFF));
    Bytes.set buf 40 (Char.chr (b land 0xFF));
    Key.of_string (Bytes.to_string buf)
  in
  let gen_key = QCheck.(triple (int_bound 2) (int_bound 255) (int_bound 255)) in
  let gen_op =
    QCheck.(
      oneof
        [
          map (fun (k, dt) -> `Probe (k, dt)) (pair gen_key (int_bound 400));
          map
            (fun (lo, hi, node, dt) -> `Insert (lo, hi, node, dt))
            (quad gen_key gen_key (int_bound 31) (int_bound 400));
          map (fun k -> `Invalidate k) gen_key;
          map (fun k -> `Jump k) (int_bound 3);
        ])
  in
  QCheck.Test.make ~name:"arena matches Map reference" ~count:200
    QCheck.(pair (oneofl [ 5.0; 97.0; 4500.0 ]) (list_of_size Gen.(0 -- 120) gen_op))
    (fun (ttl, ops) ->
      let arena = Lookup_cache.create ~ttl () in
      let oracle = Oracle.create ~ttl in
      let now = ref 0.0 in
      let agreed = ref true in
      let check_counters () =
        agreed :=
          !agreed
          && Lookup_cache.hits arena = oracle.Oracle.hits
          && Lookup_cache.misses arena = oracle.Oracle.misses
          && Lookup_cache.entry_count arena = Oracle.M.cardinal oracle.Oracle.entries
      in
      List.iter
        (fun op ->
          match op with
          | `Probe (k, dt) ->
              now := !now +. float_of_int dt;
              let key = key_of k in
              let a = Lookup_cache.lookup arena ~now:!now key in
              let o = Oracle.lookup oracle ~now:!now key in
              agreed := !agreed && a = o;
              check_counters ()
          | `Insert (lo, hi, node, dt) ->
              now := !now +. float_of_int dt;
              Lookup_cache.insert arena ~now:!now ~lo:(key_of lo) ~hi:(key_of hi)
                ~node;
              Oracle.insert oracle ~now:!now ~lo:(key_of lo) ~hi:(key_of hi) ~node;
              check_counters ()
          | `Invalidate k ->
              let key = key_of k in
              agreed :=
                !agreed
                && Lookup_cache.invalidate arena key = Oracle.invalidate oracle key;
              check_counters ()
          | `Jump k ->
              (* Leap past k purge windows so lazy compaction fires. *)
              now := !now +. (float_of_int k *. 4.0 *. ttl))
        ops;
      !agreed)

let prop_resolve_into_matches_sequential =
  let key_of b = k_of_byte (b land 0xFF) in
  QCheck.Test.make ~name:"resolve_into equals sequential finds" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 10) (pair (int_bound 255) (int_bound 255)))
        (list_of_size Gen.(0 -- 40) (int_bound 255)))
    (fun (ranges, probes) ->
      let mk () =
        let c = Lookup_cache.create ~ttl:50.0 () in
        List.iteri
          (fun i (lo, hi) ->
            Lookup_cache.insert c ~now:(float_of_int i) ~lo:(key_of lo)
              ~hi:(key_of hi) ~node:i)
          ranges;
        c
      in
      let keys = Array.of_list (List.map key_of probes) in
      let batched = mk () and seq = mk () in
      let out = Array.make (Array.length keys) min_int in
      Lookup_cache.resolve_into batched ~now:60.0 keys out;
      let expected = Array.map (Lookup_cache.find seq ~now:60.0) keys in
      out = expected
      && Lookup_cache.hits batched = Lookup_cache.hits seq
      && Lookup_cache.misses batched = Lookup_cache.misses seq)

(* {1 Block cache} *)

let test_block_warmth () =
  let c = Block_cache.create () in
  let k = k_of_byte 1 in
  Alcotest.(check bool) "cold" false (Block_cache.touch c ~now:0.0 k);
  Alcotest.(check bool) "warm" true (Block_cache.touch c ~now:10.0 k);
  Alcotest.(check bool) "warm extends" true (Block_cache.touch c ~now:35.0 k);
  Alcotest.(check bool) "expires" false (Block_cache.touch c ~now:100.0 k);
  Alcotest.(check bool) "warm inside 30 s" true (Block_cache.touch c ~now:129.5 k);
  Alcotest.(check bool) "cold at 30 s" false (Block_cache.touch c ~now:159.5 k)

(* {1 Hot-block byte cache}

   The cache writes slices; the cases write strings. *)

let cache_store c k d = Block_cache.cache_store c k (D2_util.Slice.of_string d)

let test_bytes_cache_basics () =
  let c = Block_cache.bytes_cache ~capacity:100 in
  Alcotest.(check (option string)) "cold" None
    (Block_cache.cache_find c (k_of_byte 1));
  cache_store c (k_of_byte 1) "forty-byte-ish payload";
  Alcotest.(check (option string)) "hit" (Some "forty-byte-ish payload")
    (Block_cache.cache_find c (k_of_byte 1));
  Alcotest.(check int) "used" 22 (Block_cache.cache_used c);
  Alcotest.(check int) "count" 1 (Block_cache.cache_count c);
  Alcotest.(check int) "hits" 1 (Block_cache.cache_hits c);
  Alcotest.(check int) "misses" 1 (Block_cache.cache_misses c);
  (* Overwrite replaces the payload and re-accounts the bytes. *)
  cache_store c (k_of_byte 1) "short";
  Alcotest.(check (option string)) "overwrite" (Some "short")
    (Block_cache.cache_find c (k_of_byte 1));
  Alcotest.(check int) "used shrank" 5 (Block_cache.cache_used c);
  Alcotest.(check int) "still one entry" 1 (Block_cache.cache_count c);
  Block_cache.cache_remove c (k_of_byte 1);
  Alcotest.(check (option string)) "removed" None
    (Block_cache.cache_find c (k_of_byte 1));
  Alcotest.(check int) "empty" 0 (Block_cache.cache_used c)

let test_bytes_cache_lru_eviction () =
  let c = Block_cache.bytes_cache ~capacity:100 in
  cache_store c (k_of_byte 1) (String.make 40 'a');
  cache_store c (k_of_byte 2) (String.make 40 'b');
  (* Touch 1 so 2 becomes the LRU, then overflow. *)
  ignore (Block_cache.cache_find c (k_of_byte 1));
  cache_store c (k_of_byte 3) (String.make 40 'c');
  Alcotest.(check (option string)) "lru evicted" None
    (Block_cache.cache_find c (k_of_byte 2));
  Alcotest.(check bool) "recent kept" true
    (Block_cache.cache_find c (k_of_byte 1) <> None);
  Alcotest.(check bool) "new kept" true
    (Block_cache.cache_find c (k_of_byte 3) <> None);
  Alcotest.(check int) "one eviction" 1 (Block_cache.cache_evictions c);
  Alcotest.(check bool) "capacity held" true (Block_cache.cache_used c <= 100)

let test_bytes_cache_degenerate () =
  (* Capacity 0 disables the cache entirely — no storage, no hit/miss
     accounting noise. *)
  let c = Block_cache.bytes_cache ~capacity:0 in
  cache_store c (k_of_byte 1) "x";
  Alcotest.(check (option string)) "nothing stored" None
    (Block_cache.cache_find c (k_of_byte 1));
  Alcotest.(check int) "no misses counted" 0 (Block_cache.cache_misses c);
  (* A block bigger than the whole cache is not admitted (it would
     evict everything for a single use). *)
  let c = Block_cache.bytes_cache ~capacity:10 in
  cache_store c (k_of_byte 1) (String.make 11 'x');
  Alcotest.(check int) "oversized ignored" 0 (Block_cache.cache_count c)

let test_bytes_cache_oversized_overwrite () =
  (* Replacing a cached payload with one too big to retain must drop
     the old copy, not leave it to be served as the current value. *)
  let c = Block_cache.bytes_cache ~capacity:100 in
  cache_store c (k_of_byte 1) "short";
  cache_store c (k_of_byte 1) (String.make 200 'x');
  Alcotest.(check (option string)) "no stale copy" None
    (Block_cache.cache_find c (k_of_byte 1));
  Alcotest.(check int) "no bytes held" 0 (Block_cache.cache_used c);
  Alcotest.(check int) "no entries" 0 (Block_cache.cache_count c)

let test_bytes_cache_capacity_never_exceeded () =
  let c = Block_cache.bytes_cache ~capacity:1000 in
  let rng = Rng.create 7 in
  for _ = 1 to 500 do
    cache_store c
      (k_of_byte (Rng.int rng 256))
      (String.make (1 + Rng.int rng 300) 'z');
    if Block_cache.cache_used c > 1000 then Alcotest.fail "capacity exceeded"
  done;
  (* The accounting matches the entries actually retained. *)
  let total = ref 0 in
  for b = 0 to 255 do
    match Block_cache.cache_find c (k_of_byte b) with
    | Some d -> total := !total + String.length d
    | None -> ()
  done;
  Alcotest.(check int) "used = sum of retained" !total (Block_cache.cache_used c)

(* The page arena against a reference: a string LRU kept here, with
   the same byte accounting and counters.  Sizes run from empty to
   three whole pages, so overwrites move a key across the heap/arena
   line and between page counts; capacities include zero and ones that
   a single payload overflows.  After every step the find results,
   [cache_used], hits, misses and evictions agree, and the arena holds
   exactly the pages the retained payloads need (none leak). *)
module Ref_lru = struct
  type t = {
    cap : int;
    mutable items : (int * string) list;  (** MRU first *)
    mutable used : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create cap = { cap; items = []; used = 0; hits = 0; misses = 0; evictions = 0 }

  let remove t k =
    match List.assoc_opt k t.items with
    | None -> ()
    | Some d ->
        t.items <- List.remove_assoc k t.items;
        t.used <- t.used - String.length d

  let store t k d =
    if t.cap > 0 then
      if String.length d > t.cap then remove t k
      else begin
        remove t k;
        t.items <- (k, d) :: t.items;
        t.used <- t.used + String.length d;
        while t.used > t.cap do
          let lk, _ = List.nth t.items (List.length t.items - 1) in
          remove t lk;
          t.evictions <- t.evictions + 1
        done
      end

  let find t k =
    match List.assoc_opt k t.items with
    | Some d ->
        t.hits <- t.hits + 1;
        t.items <- (k, d) :: List.remove_assoc k t.items;
        Some d
    | None ->
        if t.cap > 0 then t.misses <- t.misses + 1;
        None

  (* Whole 4 KB pages for payloads of half a page or more. *)
  let arena_bytes t =
    List.fold_left
      (fun acc (_, d) ->
        let n = String.length d in
        if n < 2048 then acc else acc + ((n + 4095) / 4096 * 4096))
      0 t.items
end

let prop_arena_cache_matches_reference =
  let page = 4096 in
  let gen_size =
    QCheck.Gen.(
      oneof
        [
          oneofl
            [ 0; 1; 2047; 2048; 2049; page - 1; page; page + 1; (2 * page) - 1;
              2 * page; (2 * page) + 1; (3 * page) - 1; 3 * page ];
          int_bound (3 * page);
        ])
  in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (4, map3 (fun k n salt -> `Store (k, n, salt)) (int_bound 5) gen_size nat);
          (3, map (fun k -> `Find k) (int_bound 5));
          (2, map (fun k -> `Find_into k) (int_bound 5));
          (1, map (fun k -> `Remove k) (int_bound 5));
        ])
  in
  let print_op = function
    | `Store (k, n, salt) -> Printf.sprintf "store %d %dB/%d" k n salt
    | `Find k -> Printf.sprintf "find %d" k
    | `Find_into k -> Printf.sprintf "find_into %d" k
    | `Remove k -> Printf.sprintf "remove %d" k
  in
  QCheck.Test.make ~name:"arena cache agrees with a reference LRU" ~count:300
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "capacity %d: %s" cap
           (String.concat "; " (List.map print_op ops)))
       QCheck.Gen.(
         pair
           (oneofl [ 0; 1000; page; 9000; 20000; 40000 ])
           (list_size (0 -- 150) gen_op)))
    (fun (cap, ops) ->
      let c = Block_cache.bytes_cache ~capacity:cap in
      let r = Ref_lru.create cap in
      let buf = Bytes.create (3 * page) in
      let payload k n salt =
        String.init n (fun i -> Char.chr (((k * 37) + (salt * 11) + i) land 0xff))
      in
      List.for_all
        (fun op ->
          let found_agrees =
            match op with
            | `Store (k, n, salt) ->
                let d = payload k n salt in
                cache_store c (k_of_byte k) d;
                Ref_lru.store r k d;
                true
            | `Find k -> Block_cache.cache_find c (k_of_byte k) = Ref_lru.find r k
            | `Find_into k -> (
                let n = Block_cache.cache_find_into c (k_of_byte k) buf in
                match Ref_lru.find r k with
                | None -> n = -1
                | Some d -> n = String.length d && Bytes.sub_string buf 0 n = d)
            | `Remove k ->
                Block_cache.cache_remove c (k_of_byte k);
                Ref_lru.remove r k;
                true
          in
          found_agrees
          && Block_cache.cache_used c = r.Ref_lru.used
          && Block_cache.cache_count c = List.length r.Ref_lru.items
          && Block_cache.cache_hits c = r.Ref_lru.hits
          && Block_cache.cache_misses c = r.Ref_lru.misses
          && Block_cache.cache_evictions c = r.Ref_lru.evictions
          && Block_cache.cache_arena_bytes c = Ref_lru.arena_bytes r)
        ops)

(* {1 Retrieval cache}

   The per-node retrieval cache of [ablation_hotspot] is a
   [bytes_cache] used as the ablation uses it: a simulated block of
   [size] bytes is one shared payload of that length, membership is a
   [cache_find] hit, and a fetch along the reply path is a
   [cache_store]. *)

let block size = String.make size '\000'
let cached c k = Block_cache.cache_find c k <> None

let test_lru_basics () =
  let c = Block_cache.bytes_cache ~capacity:100 in
  cache_store c (k_of_byte 1) (block 40);
  cache_store c (k_of_byte 2) (block 40);
  Alcotest.(check bool) "present" true (cached c (k_of_byte 1));
  Alcotest.(check int) "bytes" 80 (Block_cache.cache_used c);
  Alcotest.(check int) "count" 2 (Block_cache.cache_count c)

let test_lru_eviction_order () =
  let c = Block_cache.bytes_cache ~capacity:100 in
  cache_store c (k_of_byte 1) (block 40);
  cache_store c (k_of_byte 2) (block 40);
  (* A hit on 1 makes 2 the LRU, then overflow. *)
  ignore (cached c (k_of_byte 1));
  cache_store c (k_of_byte 3) (block 40);
  Alcotest.(check bool) "lru evicted" false (cached c (k_of_byte 2));
  Alcotest.(check bool) "recent kept" true (cached c (k_of_byte 1));
  Alcotest.(check int) "one eviction" 1 (Block_cache.cache_evictions c)

let test_lru_reinsert_updates_size () =
  let c = Block_cache.bytes_cache ~capacity:100 in
  cache_store c (k_of_byte 1) (block 40);
  cache_store c (k_of_byte 1) (block 60);
  Alcotest.(check int) "size replaced" 60 (Block_cache.cache_used c);
  Alcotest.(check int) "single entry" 1 (Block_cache.cache_count c)

let test_lru_oversized_ignored () =
  let c = Block_cache.bytes_cache ~capacity:100 in
  cache_store c (k_of_byte 1) (block 500);
  Alcotest.(check int) "ignored" 0 (Block_cache.cache_count c)

let test_lru_capacity_never_exceeded () =
  let c = Block_cache.bytes_cache ~capacity:1000 in
  let rng = Rng.create 3 in
  for _ = 1 to 500 do
    cache_store c (k_of_byte (Rng.int rng 256)) (block (1 + Rng.int rng 300));
    if Block_cache.cache_used c > 1000 then Alcotest.fail "capacity exceeded"
  done

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "d2_cache"
    [
      ( "lookup_cache",
        Alcotest.test_case "hit/miss" `Quick test_hit_and_miss
        :: Alcotest.test_case "invalidate" `Quick test_invalidate
        :: Alcotest.test_case "ttl expiry" `Quick test_ttl_expiry
        :: Alcotest.test_case "wrap range" `Quick test_wrap_range
        :: Alcotest.test_case "full ring" `Quick test_full_ring_entry
        :: Alcotest.test_case "multiple ranges" `Quick test_multiple_ranges
        :: Alcotest.test_case "miss rate + reset" `Quick test_miss_rate_and_reset
        :: Alcotest.test_case "mru fast path" `Quick test_lookup_mru_streak
        :: qcheck
             [
               prop_cached_lookup_agrees_with_interval;
               prop_arena_matches_reference;
               prop_resolve_into_matches_sequential;
             ] );
      ( "retrieval_cache",
        [
          Alcotest.test_case "basics" `Quick test_lru_basics;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "reinsert size" `Quick test_lru_reinsert_updates_size;
          Alcotest.test_case "oversized ignored" `Quick test_lru_oversized_ignored;
          Alcotest.test_case "capacity bound" `Quick test_lru_capacity_never_exceeded;
        ] );
      ( "block_cache",
        [
          Alcotest.test_case "warmth" `Quick test_block_warmth;
        ] );
      ( "bytes_cache",
        [
          Alcotest.test_case "basics" `Quick test_bytes_cache_basics;
          Alcotest.test_case "lru eviction" `Quick test_bytes_cache_lru_eviction;
          Alcotest.test_case "degenerate capacities" `Quick
            test_bytes_cache_degenerate;
          Alcotest.test_case "oversized overwrite drops the old copy" `Quick
            test_bytes_cache_oversized_overwrite;
          Alcotest.test_case "capacity bound + accounting" `Quick
            test_bytes_cache_capacity_never_exceeded;
        ]
        @ qcheck [ prop_arena_cache_matches_reference ] );
    ]
