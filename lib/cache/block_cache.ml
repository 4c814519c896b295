module Key = D2_keyspace.Key
module KTbl = Key.Table

let window = 30.0

type t = {
  warm : float KTbl.t;  (** key -> last access time *)
  mutable accesses_since_purge : int;
}

let create () = { warm = KTbl.create 256; accesses_since_purge = 0 }

let purge_warm t ~now =
  let stale =
    KTbl.fold
      (fun k last acc -> if now -. last >= window then k :: acc else acc)
      t.warm []
  in
  List.iter (KTbl.remove t.warm) stale

let maybe_purge t ~now =
  t.accesses_since_purge <- t.accesses_since_purge + 1;
  if t.accesses_since_purge > 4096 then begin
    t.accesses_since_purge <- 0;
    purge_warm t ~now
  end

let touch t ~now key =
  maybe_purge t ~now;
  let hit =
    match KTbl.find_opt t.warm key with
    | Some last -> now -. last < window
    | None -> false
  in
  KTbl.replace t.warm key now;
  hit

(* {1 Hot-block byte cache}

   The disk store's front and the hot-spot ablation's per-node
   retrieval cache: retains whole block payloads up to a byte
   capacity, evicting least-recently-used.  An intrusive doubly-linked
   list over interned entry records keeps store/find/evict O(1) with
   no per-access allocation beyond the table probe.

   The bytes live off the OCaml heap, in one arena of 4 KB pages (a
   Bigarray): 64 MB of cached 8 KB strings would be live major-heap
   data that the GC scans and sizes the heap by.  A payload takes a
   chain of pages ([link]) popped from a free-page stack, so a store
   allocates nothing; payloads under half a page stay on the heap as
   strings, where a page would waste more than it holds.

   Page budget: a payload of n >= page/2 bytes takes ceil(n / page)
   <= 2n / page pages, so twice the byte capacity in pages always
   holds everything the byte-bounded LRU retains — eviction stays
   purely byte-driven, as before the arena.  Pages are handed out
   lowest first and reused last-freed first, so the pages ever touched
   (and resident) are as many as were ever in use at once. *)

module Slice = D2_util.Slice

type arena =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

external blit_in : Bytes.t -> int -> arena -> int -> int -> unit
  = "d2_arena_blit_in"
[@@noalloc]

external blit_out : arena -> int -> Bytes.t -> int -> int -> unit
  = "d2_arena_blit_out"
[@@noalloc]

let page = 4096

type entry = {
  ekey : Key.t;
  mutable len : int;
  mutable small : string;  (** the payload when under half a page *)
  mutable first : int;  (** first arena page; -1 when [small] holds it *)
  mutable prev : entry;  (** toward MRU *)
  mutable next : entry;  (** toward LRU *)
}

type bytes_cache = {
  capacity : int;
  (* The cache carries its own lock so a hit never has to take the
     owning store's big mutex: domain-sharded readers contend only on
     this short critical section (one table probe, at most a few page
     copies). *)
  mu : Mutex.t;
  tbl : entry KTbl.t;
  mutable head : entry option;  (** MRU; [None] iff empty *)
  mutable used : int;
  mutable bhits : int;
  mutable bmisses : int;
  mutable evictions : int;
  arena : arena;
  link : int array;  (** page -> next page of the same payload; -1 ends it *)
  free : int array;  (** free-page stack: [free.(0 .. nfree-1)] *)
  mutable nfree : int;
}

let bytes_cache ~capacity =
  let pages = if capacity <= 0 then 0 else ((2 * capacity) + page - 1) / page in
  {
    capacity;
    mu = Mutex.create ();
    tbl = KTbl.create 256;
    head = None;
    used = 0;
    bhits = 0;
    bmisses = 0;
    evictions = 0;
    arena = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (pages * page);
    link = Array.make pages (-1);
    free = Array.init pages (fun i -> pages - 1 - i);
    nfree = pages;
  }

let cache_used c = c.used
let cache_count c = KTbl.length c.tbl
let cache_hits c = c.bhits
let cache_misses c = c.bmisses
let cache_evictions c = c.evictions
let cache_arena_bytes c = (Array.length c.free - c.nfree) * page

(* Return [e]'s pages to the free stack. *)
let release c e =
  let p = ref e.first in
  while !p >= 0 do
    c.free.(c.nfree) <- !p;
    c.nfree <- c.nfree + 1;
    p := c.link.(!p)
  done;
  e.first <- -1;
  e.small <- ""

(* Copy [s] into [e]: a string when small, else a fresh page chain. *)
let fill c e (s : Slice.t) =
  if s.len < page / 2 then e.small <- Slice.to_string s
  else begin
    let last = ref (-1) and pos = ref 0 in
    while !pos < s.len do
      (* Unreachable by the page budget above. *)
      if c.nfree = 0 then failwith "Block_cache: arena exhausted";
      c.nfree <- c.nfree - 1;
      let p = c.free.(c.nfree) in
      let n = min page (s.len - !pos) in
      blit_in s.buf (s.off + !pos) c.arena (p * page) n;
      c.link.(p) <- -1;
      if !last < 0 then e.first <- p else c.link.(!last) <- p;
      last := p;
      pos := !pos + n
    done
  end

let copy_out c e dst =
  if e.first < 0 then Bytes.blit_string e.small 0 dst 0 e.len
  else begin
    let p = ref e.first and pos = ref 0 in
    while !p >= 0 do
      let n = min page (e.len - !pos) in
      blit_out c.arena (!p * page) dst !pos n;
      pos := !pos + n;
      p := c.link.(!p)
    done
  end

(* Detach [e] from the ring; caller fixes [head]. *)
let unlink_entry e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_front c e =
  match c.head with
  | None ->
      e.prev <- e;
      e.next <- e;
      c.head <- Some e
  | Some h ->
      e.next <- h;
      e.prev <- h.prev;
      h.prev.next <- e;
      h.prev <- e;
      c.head <- Some e

let promote c e =
  match c.head with
  | Some h when h == e -> ()
  | _ ->
      unlink_entry e;
      push_front c e

let drop_entry c e =
  KTbl.remove c.tbl e.ekey;
  c.used <- c.used - e.len;
  release c e;
  (match c.head with
  | Some h when h == e ->
      if e.next == e then c.head <- None else c.head <- Some e.next
  | _ -> ());
  unlink_entry e

let evict_to_fit c =
  while c.used > c.capacity do
    match c.head with
    | None -> c.used <- 0 (* unreachable: used > 0 implies entries *)
    | Some h ->
        drop_entry c h.prev;  (* LRU = MRU's prev in the ring *)
        c.evictions <- c.evictions + 1
  done

(* A payload too big to retain still drops the key's older copy:
   the cache must never answer with a value the caller has replaced.
   The entry gives its old pages back and is accounted at its new
   size before eviction runs, so the pages it then takes are free. *)
let cache_store c key (s : Slice.t) =
  if c.capacity > 0 then
    Mutex.protect c.mu (fun () ->
        let found = KTbl.find_opt c.tbl key in
        if s.len > c.capacity then Option.iter (drop_entry c) found
        else begin
          let e =
            match found with
            | Some e ->
                c.used <- c.used - e.len;
                release c e;
                promote c e;
                e
            | None ->
                let rec e =
                  { ekey = key; len = 0; small = ""; first = -1; prev = e; next = e }
                in
                KTbl.replace c.tbl key e;
                push_front c e;
                e
          in
          e.len <- s.len;
          c.used <- c.used + s.len;
          evict_to_fit c;
          fill c e s
        end)

(* A probe: counts a hit or a miss and promotes a hit to MRU. *)
let lookup c key =
  match KTbl.find_opt c.tbl key with
  | None ->
      if c.capacity > 0 then c.bmisses <- c.bmisses + 1;
      None
  | Some e ->
      c.bhits <- c.bhits + 1;
      promote c e;
      Some e

let cache_find c key =
  Mutex.protect c.mu (fun () ->
      match lookup c key with
      | None -> None
      | Some e when e.first < 0 -> Some e.small
      | Some e ->
          let b = Bytes.create e.len in
          copy_out c e b;
          Some (Bytes.unsafe_to_string b))

let cache_find_into c key dst =
  Mutex.protect c.mu (fun () ->
      match lookup c key with
      | None -> -1
      | Some e ->
          if e.len > Bytes.length dst then
            invalid_arg "Block_cache.cache_find_into: buffer too small";
          copy_out c e dst;
          e.len)

let cache_remove c key =
  Mutex.protect c.mu (fun () ->
      match KTbl.find_opt c.tbl key with
      | None -> ()
      | Some e -> drop_entry c e)
