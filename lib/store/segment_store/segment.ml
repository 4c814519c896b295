module Key = D2_keyspace.Key
module Bytebuf = D2_util.Bytebuf
module Slice = D2_util.Slice

external pread_stub :
  Unix.file_descr -> Bytes.t -> int -> int -> int -> int
  = "d2_segstore_pread"

external fdatasync_stub : Unix.file_descr -> unit = "d2_segstore_fdatasync"

type t = {
  sid : int;
  fd : Unix.file_descr;
  wbuf : Bytebuf.t;  (** staged records, drained whole by [flush] *)
  mutable written : int;  (** bytes pushed to the fd *)
  mutable synced_ : int;  (** bytes covered by the last fdatasync *)
  writable : bool;
}

(* {1 The directory}

   The segment naming rule is stated once: [id_of_name] accepts
   exactly the names [path] formats. *)

let file_name id = Printf.sprintf "seg-%08d.log" id
let path ~dir ~id = Filename.concat dir (file_name id)

let id_of_name name =
  match Scanf.sscanf_opt name "seg-%08d.log%!" Fun.id with
  | Some id when file_name id = name -> Some id
  | _ -> None

let ckpt_path dir = Filename.concat dir "index.ckpt"

let rec mkdirs d =
  if not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_dir ~dir =
  mkdirs dir;
  let ids =
    Sys.readdir dir |> Array.to_list |> List.filter_map id_of_name
    |> List.sort compare
  in
  if ids = [] && not (Sys.file_exists (ckpt_path dir)) then None else Some ids

let write_fully fd buf off len =
  let o = ref off and remaining = ref len in
  while !remaining > 0 do
    let n = Unix.write fd buf !o !remaining in
    o := !o + n;
    remaining := !remaining - n
  done

let write_checkpoint ~dir (img : Slice.t) =
  let path = ckpt_path dir in
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  (* The rename must not land before the bytes: fsync, then swap.  A
     failed write or fsync leaves the old checkpoint in place. *)
  (try
     write_fully fd img.buf img.off img.len;
     Unix.fsync fd
   with e ->
     Unix.close fd;
     (try Unix.unlink tmp with Unix.Unix_error _ -> ());
     raise e);
  Unix.close fd;
  Unix.rename tmp path

let read_checkpoint ~dir =
  match In_channel.with_open_bin (ckpt_path dir) In_channel.input_all with
  | s -> Some s
  | exception _ -> None

(* {1 One segment file} *)

let create ~dir ~id =
  let fd =
    Unix.openfile (path ~dir ~id)
      [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  {
    sid = id;
    fd;
    wbuf = Bytebuf.create ~capacity:65536 ();
    written = 0;
    synced_ = 0;
    writable = true;
  }

let open_existing ~dir ~id =
  let fd =
    Unix.openfile (path ~dir ~id) [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0o644
  in
  let len = (Unix.fstat fd).Unix.st_size in
  {
    sid = id;
    fd;
    wbuf = Bytebuf.create ~capacity:0 ();
    written = len;
    (* A reopened segment's bytes were either synced before the crash
       or are about to be re-validated record by record; recovery
       re-syncs after truncation. *)
    synced_ = len;
    writable = false;
  }

let id t = t.sid
let length t = t.written + Bytebuf.length t.wbuf
let file_length t = t.written
let synced t = t.synced_

(* Room for [n] more bytes: the buffer and the position to fill,
   which [Bytebuf.commit] then claims. *)
let claim t n =
  if not t.writable then failwith "Segment.append: sealed segment";
  Bytebuf.reserve t.wbuf n

let append t ~kind ~key ~(data : Slice.t) =
  let off = length t in
  let buf, pos = claim t (Record.encoded_len ~data_len:data.len) in
  Bytebuf.commit t.wbuf (Record.encode_into buf ~off:pos ~kind ~key ~data);
  off

let flush t ~fsync =
  if not (Bytebuf.is_empty t.wbuf) then begin
    let buf, off, len = Bytebuf.peek t.wbuf in
    write_fully t.fd buf off len;
    t.written <- t.written + len;
    Bytebuf.consume t.wbuf len;
    (* A burst (a compaction step relocates up to 512 KB) may have
       grown the buffer; halve it back, but keep 1 MB, so steady group
       commits reuse one buffer. *)
    Bytebuf.shrink t.wbuf ~floor:(1 lsl 20)
  end;
  if fsync && t.synced_ < t.written then begin
    fdatasync_stub t.fd;
    t.synced_ <- t.written
  end

let read_into t ~off ~len buf ~dst_off =
  if off < 0 || len < 0 || off + len > length t then
    invalid_arg "Segment.read_into: out of range";
  (* File part first, then whatever still sits in the write buffer. *)
  let file_n = max 0 (min len (t.written - off)) in
  if file_n > 0 then begin
    let got = ref 0 in
    while !got < file_n do
      let n =
        pread_stub t.fd buf (dst_off + !got) (file_n - !got) (off + !got)
      in
      if n = 0 then failwith "Segment.read_into: short read";
      got := !got + n
    done
  end;
  let buf_n = len - file_n in
  if buf_n > 0 then begin
    let wb, r, _ = Bytebuf.peek t.wbuf in
    Bytes.blit wb (r + off + file_n - t.written) buf (dst_off + file_n) buf_n
  end

let relocate t ~src ~off ~len ~key =
  let at = length t in
  let buf, pos = claim t len in
  read_into src ~off ~len buf ~dst_off:pos;
  match Record.decode buf ~off:pos ~avail:len with
  | `Record r
    when r.Record.d_kind = Record.kind_put
         && r.Record.d_total = len
         && Key.equal r.Record.d_key key ->
      Bytebuf.commit t.wbuf len;
      at
  | _ -> -1

let read_all t =
  let buf = Bytes.create t.written in
  read_into t ~off:0 ~len:t.written buf ~dst_off:0;
  buf

let truncate_to t len =
  if len > t.written then invalid_arg "Segment.truncate_to";
  Unix.ftruncate t.fd len;
  t.written <- len;
  t.synced_ <- min t.synced_ len

(* The two halves of an off-thread sync: [datasync] is the bare
   fdatasync(2) (call it without the store lock — it only touches the
   fd), [mark_synced] the bookkeeping once the caller holds the lock
   again. *)
let datasync t = fdatasync_stub t.fd
let mark_synced t ~upto = if upto > t.synced_ then t.synced_ <- min upto t.written

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
let unlink ~dir ~id = try Unix.unlink (path ~dir ~id) with Unix.Unix_error _ -> ()
