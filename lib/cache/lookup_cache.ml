module Key = D2_keyspace.Key

(* {1 Flat range arena}

   Entries live in parallel columns sorted by range upper bound [hi]:
   a 62-bit prefix int column searched with the same dynamic
   common-prefix-offset binary search as {!D2_dht.Ring.lower_bound}
   (locality-preserving keys of one volume share a long head, so a
   fixed offset-0 prefix would not discriminate), plus [lo], [node]
   and [expires] columns read only at the final index.  Inserts append
   to a small unsorted tail that is merged into the sorted region once
   full, so the per-insert cost is amortized O(len/TAIL).  Removals
   (duplicate-hi replacement and probe-time eviction of an expired
   candidate) tombstone the slot ([node = -1]); tombstones are swept
   lazily at the next merge once they exceed a fixed fraction
   of the arena, which also replaces the old O(n log n) full-map
   [purge] with one left-compaction pass.  A generation-stamped MRU
   index answers the common same-range-again probe with two byte
   compares and no search. *)

let tail_max = 32

(* Tombstone fraction that triggers a sweep at the next insert; the
   sweep itself rides the tail merge, so lowering this only adds merge
   passes, never extra search cost. *)
let compact_frac = 0.25

type t = {
  ttl : float;
  mutable pre : int array;  (** [Key.prefix_at his.(i) off], sorted region *)
  mutable his : Key.t array;  (** range upper bounds; [0, n) sorted, [n, n+tn) tail *)
  mutable los : Key.t array;
  mutable nodes : int array;  (** -1 marks a tombstone *)
  mutable expires : float array;
  mutable n : int;  (** sorted count, tombstones included *)
  mutable tn : int;  (** unsorted tail count *)
  mutable off : int;  (** common-prefix offset of the sorted region *)
  mutable dead : int;  (** tombstones across both regions *)
  mutable live : int;  (** entries with [node >= 0] *)
  mutable gen : int;  (** bumped whenever indices move or entries change *)
  mutable mru : int;  (** index of the last search hit, or -1 *)
  mutable mru_gen : int;  (** [mru] is only trusted when this equals [gen] *)
  mutable hits : int;
  mutable misses : int;
  mutable last_purge : float;
}

let create ?(ttl = 4500.0) () =
  if ttl <= 0.0 then invalid_arg "Lookup_cache.create: ttl must be positive";
  {
    ttl;
    pre = [||];
    his = [||];
    los = [||];
    nodes = [||];
    expires = [||];
    n = 0;
    tn = 0;
    off = Key.max_prefix_offset;
    dead = 0;
    live = 0;
    gen = 0;
    mru = -1;
    mru_gen = 0;
    hits = 0;
    misses = 0;
    last_purge = 0.0;
  }

let invalidate_mru t =
  t.gen <- t.gen + 1;
  t.mru <- -1

(* Index of the first sorted entry with hi >= key, or [t.n]; the
   Ring.lower_bound idiom (head compare, prefix ints, byte tie-break). *)
let lower_bound t key =
  if t.n = 0 then 0
  else begin
    let c = if t.off = 0 then 0 else Key.compare_head key t.his.(0) t.off in
    if c < 0 then 0
    else if c > 0 then t.n
    else begin
      let kp = Key.prefix_at key t.off in
      let lo = ref 0 and hi = ref t.n in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        let mp = Array.unsafe_get t.pre mid in
        let below =
          if mp < kp then true
          else if mp > kp then false
          else Key.compare_from t.off (Array.unsafe_get t.his mid) key < 0
        in
        if below then lo := mid + 1 else hi := mid
      done;
      !lo
    end
  end

(* The live entry with the smallest hi >= key across both regions, or
   -1.  The sorted side is the first live slot at or after the lower
   bound; the tail (at most [tail_max] entries) is scanned outright. *)
let candidate_index t key =
  let best = ref (-1) in
  let i = ref (lower_bound t key) in
  while !i < t.n && Array.unsafe_get t.nodes !i < 0 do
    incr i
  done;
  if !i < t.n then best := !i;
  for j = t.n to t.n + t.tn - 1 do
    if
      Array.unsafe_get t.nodes j >= 0
      && Key.compare (Array.unsafe_get t.his j) key >= 0
      && (!best < 0 || Key.compare (Array.unsafe_get t.his j) t.his.(!best) < 0)
    then best := j
  done;
  !best

let tombstone t i =
  t.nodes.(i) <- -1;
  t.dead <- t.dead + 1;
  t.live <- t.live - 1

(* Rebuild the sorted region from both regions' surviving entries:
   insertion-sort the (short) tail by hi, merge it with the sorted
   run, drop tombstones, and refresh the prefix column at the merged
   common-prefix offset.  [drop_expired] additionally sheds entries
   with [expires <= now] — the purge path. *)
let rebuild t ?(drop_expired = false) ~now () =
  let total = t.n + t.tn in
  (* Sort the tail slots in place (ascending hi); tiny, so insertion
     sort beats a comparator closure. *)
  let hb = t.his and lb = t.los and nb = t.nodes and eb = t.expires in
  for i = t.n + 1 to total - 1 do
    let h = hb.(i) and l = lb.(i) and nd = nb.(i) and ex = eb.(i) in
    let j = ref i in
    while !j > t.n && Key.compare hb.(!j - 1) h > 0 do
      hb.(!j) <- hb.(!j - 1);
      lb.(!j) <- lb.(!j - 1);
      nb.(!j) <- nb.(!j - 1);
      eb.(!j) <- eb.(!j - 1);
      decr j
    done;
    hb.(!j) <- h;
    lb.(!j) <- l;
    nb.(!j) <- nd;
    eb.(!j) <- ex
  done;
  let his = Array.make (max 1 total) Key.zero in
  let los = Array.make (max 1 total) Key.zero in
  let nodes = Array.make (max 1 total) (-1) in
  let expires = Array.make (max 1 total) 0.0 in
  let keep i = nb.(i) >= 0 && ((not drop_expired) || eb.(i) > now) in
  let w = ref 0 in
  let emit i =
    his.(!w) <- hb.(i);
    los.(!w) <- lb.(i);
    nodes.(!w) <- nb.(i);
    expires.(!w) <- eb.(i);
    incr w
  in
  let a = ref 0 and b = ref t.n in
  while !a < t.n || !b < total do
    if !a < t.n && not (keep !a) then incr a
    else if !b < total && not (keep !b) then incr b
    else if !a >= t.n then begin emit !b; incr b end
    else if !b >= total then begin emit !a; incr a end
    else if Key.compare hb.(!a) hb.(!b) <= 0 then begin emit !a; incr a end
    else begin emit !b; incr b end
  done;
  t.his <- his;
  t.los <- los;
  t.nodes <- nodes;
  t.expires <- expires;
  t.n <- !w;
  t.tn <- 0;
  t.dead <- 0;
  t.live <- !w;
  t.off <-
    (if t.n <= 1 then Key.max_prefix_offset
     else min Key.max_prefix_offset (Key.common_prefix_len his.(0) his.(t.n - 1)));
  t.pre <- Array.init (max 1 t.n) (fun i -> if i < t.n then Key.prefix_at his.(i) t.off else 0);
  invalidate_mru t

let purge t ~now =
  rebuild t ~drop_expired:true ~now ();
  t.last_purge <- now

(* [lookup] as an int-returning kernel: the cached owner or -1.  No
   allocation on any path, so the simulators' per-op probe costs only
   the MRU compares (locality hit) or one binary search. *)
let find t ~now key =
  if now -. t.last_purge > 4.0 *. t.ttl then purge t ~now;
  let m = t.mru in
  if
    m >= 0 && t.mru_gen = t.gen
    && t.expires.(m) > now
    && Key.in_interval key ~lo:t.los.(m) ~hi:t.his.(m)
  then begin
    t.hits <- t.hits + 1;
    t.nodes.(m)
  end
  else begin
    let i = candidate_index t key in
    if i >= 0 && Key.in_interval key ~lo:t.los.(i) ~hi:t.his.(i) then
      if t.expires.(i) > now then begin
        t.hits <- t.hits + 1;
        t.mru <- i;
        t.mru_gen <- t.gen;
        t.nodes.(i)
      end
      else begin
        tombstone t i;
        invalidate_mru t;
        t.misses <- t.misses + 1;
        -1
      end
    else begin
      t.misses <- t.misses + 1;
      -1
    end
  end

let lookup t ~now key =
  match find t ~now key with -1 -> None | node -> Some node

let resolve_into t ~now keys out =
  let len = Array.length keys in
  if Array.length out < len then
    invalid_arg "Lookup_cache.resolve_into: output shorter than input";
  for i = 0 to len - 1 do
    out.(i) <- find t ~now (Array.unsafe_get keys i)
  done

let grow t =
  let cap = Array.length t.his in
  if t.n + t.tn = cap then begin
    let ncap = max 16 (2 * cap) in
    let ext a zero = Array.init ncap (fun i -> if i < cap then a.(i) else zero) in
    t.his <- ext t.his Key.zero;
    t.los <- ext t.los Key.zero;
    t.nodes <- ext t.nodes (-1);
    t.expires <- ext t.expires 0.0
  end

let insert_piece t ~lo ~hi ~node ~expires =
  (* Map semantics: adding an existing hi replaces, so the shadowed
     copy — wherever it lives — becomes a tombstone. *)
  (let i = ref (lower_bound t hi) in
   let found = ref false in
   while (not !found) && !i < t.n && Key.equal t.his.(!i) hi do
     if t.nodes.(!i) >= 0 then begin
       tombstone t !i;
       found := true
     end
     else incr i
   done;
   if not !found then begin
     i := t.n;
     while (not !found) && !i < t.n + t.tn do
       if t.nodes.(!i) >= 0 && Key.equal t.his.(!i) hi then begin
         tombstone t !i;
         found := true
       end
       else incr i
     done
   end);
  grow t;
  let j = t.n + t.tn in
  t.his.(j) <- hi;
  t.los.(j) <- lo;
  t.nodes.(j) <- node;
  t.expires.(j) <- expires;
  t.tn <- t.tn + 1;
  t.live <- t.live + 1;
  invalidate_mru t;
  if
    t.tn >= tail_max
    || t.dead > 16
       && float_of_int t.dead
          > compact_frac *. float_of_int (t.n + t.tn)
  then rebuild t ~now:0.0 ()

let insert t ~now ~lo ~hi ~node =
  let expires = now +. t.ttl in
  let c = Key.compare lo hi in
  if c = 0 then
    (* Single node owns the whole ring. *)
    insert_piece t ~lo:Key.max_key ~hi:Key.max_key ~node ~expires
  else if c < 0 then insert_piece t ~lo ~hi ~node ~expires
  else begin
    (* Wrapping range (lo, max] ∪ [zero, hi]: two pieces.  The second
       piece uses lo = max_key, for which [in_interval] accepts every
       key <= hi. *)
    insert_piece t ~lo ~hi:Key.max_key ~node ~expires;
    insert_piece t ~lo:Key.max_key ~hi ~node ~expires
  end

(* Drop the entry whose range covers [key] (expired or not) without
   touching the hit/miss counters — the client failure path: a lookup
   result led to a dead or wrong owner, so the cached range must go
   before the retry re-resolves. *)
let invalidate t key =
  let i = candidate_index t key in
  if i >= 0 && Key.in_interval key ~lo:t.los.(i) ~hi:t.his.(i) then begin
    tombstone t i;
    invalidate_mru t;
    true
  end
  else false

let hits t = t.hits
let misses t = t.misses

let miss_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.misses /. float_of_int total

let entry_count t = t.live

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

let clear t =
  t.n <- 0;
  t.tn <- 0;
  t.dead <- 0;
  t.live <- 0;
  t.off <- Key.max_prefix_offset;
  invalidate_mru t;
  reset_stats t
