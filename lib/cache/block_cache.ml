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

(* {1 Retrieval cache}

   The hot-spot ablation's per-node retrieval cache: keys and block
   sizes up to a byte capacity, evicting least-recently-used.  An
   intrusive doubly-linked ring over the entries keeps store, probe
   and evict O(1), and a probe allocates nothing. *)

type entry = {
  ekey : Key.t;
  size : int;
  mutable prev : entry;  (** toward MRU *)
  mutable next : entry;  (** toward LRU *)
}

type bytes_cache = {
  capacity : int;
  tbl : entry KTbl.t;
  mutable head : entry option;  (** MRU; [None] iff empty *)
  mutable used : int;
  mutable bhits : int;
  mutable bmisses : int;
  mutable evictions : int;
}

let bytes_cache ~capacity =
  {
    capacity;
    tbl = KTbl.create 256;
    head = None;
    used = 0;
    bhits = 0;
    bmisses = 0;
    evictions = 0;
  }

let cache_used c = c.used
let cache_count c = KTbl.length c.tbl
let cache_hits c = c.bhits
let cache_misses c = c.bmisses
let cache_evictions c = c.evictions

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
  c.used <- c.used - e.size;
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

(* A refresh replaces the key's entry; a block too big to retain
   still drops the older one. *)
let cache_store c key ~size =
  if c.capacity > 0 then begin
    Option.iter (drop_entry c) (KTbl.find_opt c.tbl key);
    if size <= c.capacity then begin
      let rec e = { ekey = key; size; prev = e; next = e } in
      KTbl.replace c.tbl key e;
      push_front c e;
      c.used <- c.used + size;
      evict_to_fit c
    end
  end

let cache_mem c key =
  match KTbl.find_opt c.tbl key with
  | None ->
      if c.capacity > 0 then c.bmisses <- c.bmisses + 1;
      false
  | Some e ->
      c.bhits <- c.bhits + 1;
      promote c e;
      true
