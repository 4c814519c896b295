module Key = D2_keyspace.Key

(* Slots: [segs.(s) >= 0] is live; a free slot has [segs.(s) = -1] and
   its successor in the free list threaded through [offs.(s)]. *)
type t = {
  tbl : int Key.Table.t;
  mutable keys : Key.t array;
  mutable segs : int array;
  mutable offs : int array;
  mutable lens : int array;
  mutable high : int;  (** slots ever touched *)
  mutable n : int;  (** live bindings *)
  mutable free_head : int;
  mutable ckpt : Bytes.t;  (** the checkpoint encoder's buffer, reused *)
}

let create ?(capacity = 1024) () =
  let capacity = max 16 capacity in
  {
    tbl = Key.Table.create capacity;
    keys = Array.make capacity Key.zero;
    segs = Array.make capacity (-1);
    offs = Array.make capacity 0;
    lens = Array.make capacity 0;
    high = 0;
    n = 0;
    free_head = -1;
    ckpt = Bytes.empty;
  }

let count t = t.n
let find t k = match Key.Table.find_opt t.tbl k with Some s -> s | None -> -1
let seg t s = t.segs.(s)
let off t s = t.offs.(s)
let len t s = t.lens.(s)
let key t s = t.keys.(s)

let grow t =
  let cap = Array.length t.segs in
  let ncap = 2 * cap in
  let g mk a =
    let b = mk ncap in
    Array.blit a 0 b 0 cap;
    b
  in
  t.keys <- g (fun n -> Array.make n Key.zero) t.keys;
  t.segs <- g (fun n -> Array.make n (-1)) t.segs;
  t.offs <- g (fun n -> Array.make n 0) t.offs;
  t.lens <- g (fun n -> Array.make n 0) t.lens

let alloc_slot t =
  if t.free_head >= 0 then begin
    let s = t.free_head in
    t.free_head <- t.offs.(s);
    s
  end
  else begin
    if t.high = Array.length t.segs then grow t;
    let s = t.high in
    t.high <- t.high + 1;
    s
  end

let bind t ~key ~seg ~off ~len =
  match Key.Table.find_opt t.tbl key with
  | Some s ->
      let old = (t.segs.(s), t.lens.(s)) in
      t.segs.(s) <- seg;
      t.offs.(s) <- off;
      t.lens.(s) <- len;
      Some old
  | None ->
      let s = alloc_slot t in
      t.keys.(s) <- key;
      t.segs.(s) <- seg;
      t.offs.(s) <- off;
      t.lens.(s) <- len;
      Key.Table.replace t.tbl key s;
      t.n <- t.n + 1;
      None

let move t s ~seg ~off =
  t.segs.(s) <- seg;
  t.offs.(s) <- off

let slots t = t.high

let remove t k =
  match Key.Table.find_opt t.tbl k with
  | None -> None
  | Some s ->
      let old = (t.segs.(s), t.lens.(s)) in
      Key.Table.remove t.tbl k;
      t.keys.(s) <- Key.zero;
      t.segs.(s) <- -1;
      t.offs.(s) <- t.free_head;
      t.free_head <- s;
      t.n <- t.n - 1;
      Some old

let iter t f =
  for s = 0 to t.high - 1 do
    if t.segs.(s) >= 0 then
      f ~key:t.keys.(s) ~seg:t.segs.(s) ~off:t.offs.(s) ~len:t.lens.(s)
  done

(* {1 Checkpoints} *)

let magic = "D2SEGIDX1\n"

let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let set_u48 b off v =
  set_u32 b off v;
  Bytes.set_uint16_le b (off + 4) ((v lsr 32) land 0xffff)

let get_u32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let get_u48 s off =
  get_u32 s off
  lor (Char.code s.[off + 4] lsl 32)
  lor (Char.code s.[off + 5] lsl 40)

let entry_len = Key.size + 4 + 6 + 4
let header_len = String.length magic + 4 + 4 + 6

(* Encoded in place into the buffer the index keeps: a checkpoint
   rewrites the whole index every few seconds, and a fresh
   index-sized block per checkpoint would be major-heap garbage. *)
let encode t ~tail_seg ~tail_off =
  let size = header_len + (t.n * entry_len) + 4 in
  if Bytes.length t.ckpt < size then t.ckpt <- Bytes.create (size + (size / 4));
  let b = t.ckpt in
  let ml = String.length magic in
  Bytes.blit_string magic 0 b 0 ml;
  set_u32 b ml t.n;
  set_u32 b (ml + 4) tail_seg;
  set_u48 b (ml + 8) tail_off;
  let o = ref header_len in
  iter t (fun ~key ~seg ~off ~len ->
      Bytes.blit_string (Key.to_string key) 0 b !o Key.size;
      set_u32 b (!o + Key.size) seg;
      set_u48 b (!o + Key.size + 4) off;
      set_u32 b (!o + Key.size + 10) len;
      o := !o + entry_len);
  set_u32 b !o (Crc32c.bytes b ~pos:0 ~len:!o);
  D2_util.Slice.v b ~off:0 ~len:size

let decode s =
  let ml = String.length magic in
  if String.length s < header_len + 4 || not (String.sub s 0 ml = magic) then
    None
  else
    let body_len = String.length s - 4 in
    let n = get_u32 s ml in
    if
      Crc32c.string s ~pos:0 ~len:body_len <> get_u32 s body_len
      || body_len <> header_len + (n * entry_len)
    then None
    else begin
      let t = create ~capacity:(max 16 (2 * n)) () in
      for i = 0 to n - 1 do
        let e = header_len + (i * entry_len) in
        ignore
          (bind t
             ~key:(Key.of_string (String.sub s e Key.size))
             ~seg:(get_u32 s (e + Key.size))
             ~off:(get_u48 s (e + Key.size + 4))
             ~len:(get_u32 s (e + Key.size + 10)))
      done;
      Some (t, get_u32 s (ml + 4), get_u48 s (ml + 8))
    end
