module Key = D2_keyspace.Key
module Vv = Version_vector
module Store = D2_segstore.Store

type entry = { vv : Vv.t; deleted : bool }

(* A partition holds its keys' entries and, in RAM, their bytes, both
   behind one lock.  The bytes sit in a table of their own, replaced in
   place, rather than in the entry record: a record re-allocated on
   every write grows the major heap of a busy daemon. *)
type partition = {
  entries : entry Key.Table.t;
  blocks : string Key.Table.t;  (** in RAM only; empty on disk *)
  lock : Mutex.t;
  mutable bytes : int;  (** payload bytes in [blocks] *)
}

type t = { parts : partition array; disk : Store.t option }

(* A power of two, so partition selection is a mask: with a handful of
   domains two writers almost never meet, and a single-domain node
   pays one uncontended lock/unlock per operation. *)
let partitions = 32

let part t key = t.parts.(Key.hash key land (partitions - 1))
let locked p f = Mutex.protect p.lock (fun () -> f p)

let recovered = { vv = Vv.empty; deleted = false }

let create ?disk () =
  let t =
    {
      parts =
        Array.init partitions (fun _ ->
            {
              entries = Key.Table.create 64;
              blocks = Key.Table.create 64;
              lock = Mutex.create ();
              bytes = 0;
            });
      disk;
    }
  in
  (* The walk holds the store's mutex, so it takes no partition lock:
     nothing else can reach [t] yet. *)
  Option.iter
    (fun st ->
      Store.iter_keys st (fun key ->
          Key.Table.replace (part t key).entries key recovered))
    disk;
  t

let disk t = t.disk

(* Install [data] ([None]: a tombstone) as the key's bytes, under the
   partition lock.  Returns whether a tombstone dropped a live block,
   and the store sequence to wait for. *)
let install t p key data =
  match (t.disk, data) with
  | Some st, Some data -> (false, Store.put st ~key ~data)
  | Some st, None -> Store.remove st ~key
  | None, _ ->
      let old = Key.Table.find_opt p.blocks key in
      Option.iter (fun old -> p.bytes <- p.bytes - String.length old) old;
      (match data with
      | Some data ->
          Key.Table.replace p.blocks key data;
          p.bytes <- p.bytes + String.length data
      | None -> Key.Table.remove p.blocks key);
      (data = None && old <> None, 0)

let bytes_of t p key =
  match t.disk with
  | Some st -> Store.get st ~key
  | None -> Key.Table.find_opt p.blocks key

(* A vector the wire cannot carry would make every later frame about
   the key fail to encode, so neither write path ever stores one. *)
let write t ~key ~node ~incoming ~data =
  locked (part t key) (fun p ->
      let cur =
        match Key.Table.find_opt p.entries key with
        | Some e -> e.vv
        | None -> Vv.empty
      in
      let vv = Vv.bump (Vv.merge cur incoming) ~node in
      if not (Vv.encodable vv) then None
      else begin
        let removed, seq = install t p key data in
        Key.Table.replace p.entries key { vv; deleted = data = None };
        Some (vv, removed, seq)
      end)

let apply t ~key ~vv ~data =
  locked (part t key) (fun p ->
      let local = Key.Table.find_opt p.entries key in
      let merged =
        match local with Some l -> Vv.merge l.vv vv | None -> vv
      in
      let win () =
        let _, seq = install t p key data in
        Key.Table.replace p.entries key { vv = merged; deleted = data = None };
        (true, seq)
      in
      match local with
      | _ when not (Vv.encodable merged) -> (false, 0)
      | None -> win ()
      | Some local -> (
          match Vv.compare_vv vv local.vv with
          | Vv.Equal | Vv.Dominated -> (false, 0)
          | Vv.Dominates -> win ()
          | Vv.Concurrent ->
              (* Both sides of a concurrent pair compute the same
                 winner, so after one exchange in either direction the
                 replicas hold the same (merged vector, bytes). *)
              if Vv.winner vv local.vv = `Left then win ()
              else begin
                Key.Table.replace p.entries key { local with vv = merged };
                (false, 0)
              end))

let read t ~key =
  locked (part t key) (fun p ->
      match Key.Table.find_opt p.entries key with
      | None -> None
      | Some e -> Some (e, if e.deleted then None else bytes_of t p key))

let get t ~key = locked (part t key) (fun p -> bytes_of t p key)

let sum t f =
  Array.fold_left (fun acc p -> acc + locked p f) 0 t.parts

let count t = sum t (fun p -> Key.Table.length p.entries)

let blocks t =
  match t.disk with
  | Some st -> Store.count st
  | None -> sum t (fun p -> Key.Table.length p.blocks)

let stored_bytes t =
  match t.disk with
  | Some st -> Store.stored_bytes st
  | None -> sum t (fun p -> p.bytes)

let iter t f =
  Array.iter (fun p -> locked p (fun p -> Key.Table.iter f p.entries)) t.parts

let iter_range t ~lo ~hi f =
  iter t (fun key e -> if Key.in_interval key ~lo ~hi then f key e)
