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
   no per-access allocation beyond the table probe. *)

type entry = {
  ekey : Key.t;
  mutable data : string;
  mutable prev : entry;  (** toward MRU *)
  mutable next : entry;  (** toward LRU *)
}

type bytes_cache = {
  capacity : int;
  (* The cache carries its own lock so a hit never has to take the
     owning store's big mutex: domain-sharded readers contend only on
     this sub-microsecond critical section. *)
  mu : Mutex.t;
  tbl : entry KTbl.t;
  mutable head : entry option;  (** MRU; [None] iff empty *)
  mutable used : int;
  mutable bhits : int;
  mutable bmisses : int;
  mutable evictions : int;
}

let bytes_cache ~capacity =
  { capacity; mu = Mutex.create (); tbl = KTbl.create 256; head = None;
    used = 0; bhits = 0; bmisses = 0; evictions = 0 }

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

let drop_entry c e =
  KTbl.remove c.tbl e.ekey;
  c.used <- c.used - String.length e.data;
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
   the cache must never answer with a value the caller has replaced. *)
let cache_store c key data =
  if c.capacity > 0 then
    Mutex.protect c.mu (fun () ->
        let found = KTbl.find_opt c.tbl key in
        if String.length data > c.capacity then Option.iter (drop_entry c) found
        else begin
          (match found with
          | Some e ->
              c.used <- c.used - String.length e.data + String.length data;
              e.data <- data;
              (match c.head with
              | Some h when h == e -> ()
              | _ ->
                  unlink_entry e;
                  push_front c e)
          | None ->
              let rec e = { ekey = key; data; prev = e; next = e } in
              KTbl.replace c.tbl key e;
              c.used <- c.used + String.length data;
              push_front c e);
          evict_to_fit c
        end)

let cache_find c key =
  Mutex.protect c.mu (fun () ->
      match KTbl.find_opt c.tbl key with
      | None ->
          if c.capacity > 0 then c.bmisses <- c.bmisses + 1;
          None
      | Some e ->
          c.bhits <- c.bhits + 1;
          (match c.head with
          | Some h when h == e -> ()
          | _ ->
              unlink_entry e;
              push_front c e);
          Some e.data)

let cache_remove c key =
  Mutex.protect c.mu (fun () ->
      match KTbl.find_opt c.tbl key with
      | None -> ()
      | Some e -> drop_entry c e)
