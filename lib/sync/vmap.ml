module Key = D2_keyspace.Key
module Vv = Version_vector
module Store = D2_segstore.Store
module Slice = D2_util.Slice

type entry = Digest.entry = { vv : Vv.t; deleted : bool }

(* A partition holds its keys' entries and, in RAM, their bytes, both
   behind one lock.  The bytes sit in a table of their own, replaced in
   place, rather than in the entry record: a record re-allocated on
   every write grows the major heap of a busy daemon. *)
type partition = {
  index : int;
  entries : entry Key.Table.t;
  blocks : string Key.Table.t;  (** in RAM only; empty on disk *)
  lock : Mutex.t;
  mutable bytes : int;  (** payload bytes in [blocks] *)
}

(* The digest of one probed ring range (lo, hi], kept per cell: a
   cell is a [cell_bits]-bit hash prefix, holding the CRC sum mod 2^32
   of its entries in its low 32 bits and their count above them.
   Every cell lies inside one partition, whose lock guards the cell
   and the partition's [built] flag. *)
type range = {
  lo : Key.t;
  hi : Key.t;
  cells : int array;
  built : bool array;  (** per partition: folded in, and kept current *)
}

type t = {
  parts : partition array;
  disk : Store.t option;
  ranges : range list Atomic.t;  (** most recently probed first *)
}

(* Partitions and cells are the digest's own hash bits, most
   significant first, so a cell, or a digest bucket at least
   [part_bits] deep, lies inside one partition.  The low hash bits,
   which pick a key's bucket in the partition's [Key.Table], stay free
   to spread its keys.  A power of two of partitions, so with a
   handful of domains two writers almost never meet, and a
   single-domain node pays one uncontended lock/unlock per
   operation. *)
let part_bits = 5
let partitions = 1 lsl part_bits
let cell_bits = 12
let cells_per_part = 1 lsl (cell_bits - part_bits)

(* Ranges kept summed: a node probes its own primary range and
   answers for the ranges of the peers whose sessions reach it, with
   room left for a membership change.  Each range costs 32 KB. *)
let max_ranges = 8

let mask32 = 0xffff_ffff
let top key bits = Digest.hash_bits key lsr (Digest.max_bits - bits)
let part t key = t.parts.(top key part_bits)
let locked p f = Mutex.protect p.lock (fun () -> f p)

let recovered = { vv = Vv.empty; deleted = false }

let create ?disk () =
  let t =
    {
      parts =
        Array.init partitions (fun index ->
            {
              index;
              entries = Key.Table.create 64;
              blocks = Key.Table.create 64;
              lock = Mutex.create ();
              bytes = 0;
            });
      disk;
      ranges = Atomic.make [];
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
   partition lock: copied into the store, or into a string the table
   keeps, so the caller's slice may be reused once this returns.
   Returns whether a tombstone dropped a live block, and the store
   sequence to wait for. *)
let install t p key (data : Slice.t option) =
  match (t.disk, data) with
  | Some st, Some data -> (false, Store.put st ~key ~data)
  | Some st, None -> Store.remove st ~key
  | None, _ ->
      let old = Key.Table.find_opt p.blocks key in
      Option.iter (fun old -> p.bytes <- p.bytes - String.length old) old;
      (match data with
      | Some data ->
          Key.Table.replace p.blocks key (Slice.to_string data);
          p.bytes <- p.bytes + data.len
      | None -> Key.Table.remove p.blocks key);
      (data = None && old <> None, 0)

let bytes_of t p key =
  match t.disk with
  | Some st -> Store.get st ~key
  | None -> Key.Table.find_opt p.blocks key

(* The bytes without a fresh copy: read into [scratch] on disk, the
   table's own (immutable) string in RAM. *)
let borrow t p key scratch =
  match t.disk with
  | Some st ->
      let n = Store.get_into st ~key scratch in
      if n < 0 then None else Some (Slice.v scratch ~off:0 ~len:n)
  | None -> Option.map Slice.of_string (Key.Table.find_opt p.blocks key)

(* {1 Range digests} *)

let crc key = function
  | Some e -> Digest.entry_crc key e.vv e.deleted
  | None -> 0

(* Add [sum] (mod 2^32) and [n] entries to the key's cell. *)
let tally r key sum n =
  let c = top key cell_bits in
  let v = r.cells.(c) in
  r.cells.(c) <- (((v lsr 32) + n) lsl 32) lor ((v + sum) land mask32)

(* Move the key's share of every cached range covering it from [old]
   to [e], under its partition lock.  [delta] is computed on the first
   range that needs it ([-1] until then). *)
let rec retally p key old e delta = function
  | [] -> ()
  | r :: rest ->
      let delta =
        if r.built.(p.index) && Key.in_interval key ~lo:r.lo ~hi:r.hi then begin
          let delta =
            if delta >= 0 then delta
            else
              (Digest.entry_crc key e.vv e.deleted - crc key old) land mask32
          in
          tally r key delta (if Option.is_none old then 1 else 0);
          delta
        end
        else delta
      in
      retally p key old e delta rest

(* The one way an entry changes once [t] is shared. *)
let set t p key old e =
  Key.Table.replace p.entries key e;
  retally p key old e (-1) (Atomic.get t.ranges)

(* A vector the wire cannot carry would make every later frame about
   the key fail to encode, so neither write path ever stores one. *)
let write t ~key ~node ~incoming ~data =
  locked (part t key) (fun p ->
      let old = Key.Table.find_opt p.entries key in
      let cur = match old with Some e -> e.vv | None -> Vv.empty in
      let vv = Vv.bump (Vv.merge cur incoming) ~node in
      if not (Vv.encodable vv) then None
      else begin
        let removed, seq = install t p key data in
        set t p key old { vv; deleted = data = None };
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
        set t p key local { vv = merged; deleted = data = None };
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
                set t p key (Some local) { local with vv = merged };
                (false, 0)
              end))

let find t ~key = locked (part t key) (fun p -> Key.Table.find_opt p.entries key)

(* An empty [have] claims nothing: a recovered block sits under the
   empty vector, and a reader holding no entry at all sends it too. *)
let read ?(have = Vv.empty) t ~key scratch =
  locked (part t key) (fun p ->
      match Key.Table.find_opt p.entries key with
      | None -> None
      | Some e ->
          let covered = (not (Vv.is_empty have)) && Vv.dominates have e.vv in
          Some (e, if e.deleted || covered then None else borrow t p key scratch))

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

let longest_chain t =
  Array.fold_left
    (fun acc p ->
      let s = locked p (fun p -> Key.Table.stats p.entries) in
      max acc s.Hashtbl.max_bucket_length)
    0 t.parts

let iter t f =
  Array.iter (fun p -> locked p (fun p -> Key.Table.iter f p.entries)) t.parts

(* The cached range for (lo, hi), moved to the front; a new one, with
   no partition built yet, evicts the least recently probed beyond
   [max_ranges]. *)
let rec range t ~lo ~hi =
  let rs = Atomic.get t.ranges in
  let same r = Key.equal r.lo lo && Key.equal r.hi hi in
  match rs with
  | r :: _ when same r -> r
  | _ ->
      let r =
        match List.find_opt same rs with
        | Some r -> r
        | None ->
            {
              lo;
              hi;
              cells = Array.make (1 lsl cell_bits) 0;
              built = Array.make partitions false;
            }
      in
      let rest = List.filter (fun r' -> r' != r) rs in
      let rs' = r :: List.filteri (fun i _ -> i < max_ranges - 1) rest in
      if Atomic.compare_and_set t.ranges rs rs' then r else range t ~lo ~hi

(* Under [p]'s lock: fold [p]'s entries into [r]'s cells unless they
   are already current.  Writers keep a built partition current only
   while [r] is cached (they read the list under the same lock), so an
   evicted range is refolded. *)
let build t p r =
  if not (r.built.(p.index) && List.memq r (Atomic.get t.ranges)) then begin
    Array.fill r.cells (p.index * cells_per_part) cells_per_part 0;
    Key.Table.iter
      (fun key e ->
        if Key.in_interval key ~lo:r.lo ~hi:r.hi then
          tally r key (Digest.entry_crc key e.vv e.deleted) 1)
      p.entries;
    r.built.(p.index) <- true
  end

(* The first and last [unit]-bit hash prefixes under the bucket
   ([prefix], [bits]). *)
let span ~prefix ~bits unit =
  let shift = Digest.max_bits - bits and down = Digest.max_bits - unit in
  ((prefix lsl shift) lsr down, ((((prefix + 1) lsl shift) - 1) lsr down))

(* The range's entries in the partitions the bucket spans: one, once
   the bucket is [part_bits] deep. *)
let iter_bucket t ~lo ~hi ~prefix ~bits f =
  let first, last = span ~prefix ~bits part_bits in
  for i = first to last do
    locked t.parts.(i) (fun p ->
        Key.Table.iter
          (fun key e -> if Key.in_interval key ~lo ~hi then f key e)
          p.entries)
  done

let children t ~lo ~hi ~prefix ~bits =
  if bits + Digest.fanout_bits > cell_bits then
    Digest.children ~iter:(iter_bucket t ~lo ~hi ~prefix ~bits) ~prefix ~bits
  else begin
    let r = range t ~lo ~hi in
    let sums = Array.make Digest.fanout 0
    and counts = Array.make Digest.fanout 0 in
    let first, last = span ~prefix ~bits cell_bits in
    let shift = cell_bits - bits - Digest.fanout_bits in
    for i = first / cells_per_part to last / cells_per_part do
      locked t.parts.(i) (fun p ->
          build t p r;
          for c = max first (i * cells_per_part)
              to min last (((i + 1) * cells_per_part) - 1) do
            let child = (c lsr shift) land (Digest.fanout - 1) in
            let v = r.cells.(c) in
            sums.(child) <- sums.(child) + (v land mask32);
            counts.(child) <- counts.(child) + (v lsr 32)
          done)
    done;
    Array.init Digest.fanout (fun i -> (sums.(i) land mask32, counts.(i)))
  end

let items t ~lo ~hi ~prefix ~bits =
  Digest.items ~iter:(iter_bucket t ~lo ~hi ~prefix ~bits) ~prefix ~bits
