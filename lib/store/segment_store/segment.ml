module Key = D2_keyspace.Key

external pread_stub :
  Unix.file_descr -> Bytes.t -> int -> int -> int -> int
  = "d2_segstore_pread"

external fdatasync_stub : Unix.file_descr -> unit = "d2_segstore_fdatasync"

type t = {
  sid : int;
  fd : Unix.file_descr;
  mutable wbuf : Bytes.t;
  mutable wlen : int;
  mutable written : int;  (** bytes pushed to the fd *)
  mutable synced_ : int;  (** bytes covered by the last fdatasync *)
  writable : bool;
}

let path ~dir ~id = Filename.concat dir (Printf.sprintf "seg-%08d.log" id)

let create ~dir ~id =
  let fd =
    Unix.openfile (path ~dir ~id)
      [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  {
    sid = id;
    fd;
    wbuf = Bytes.create 65536;
    wlen = 0;
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
    wbuf = Bytes.create 0;
    wlen = 0;
    written = len;
    (* A reopened segment's bytes were either synced before the crash
       or are about to be re-validated record by record; recovery
       re-syncs after truncation. *)
    synced_ = len;
    writable = false;
  }

let id t = t.sid
let length t = t.written + t.wlen
let file_length t = t.written
let synced t = t.synced_

let reserve t n =
  if Bytes.length t.wbuf - t.wlen < n then begin
    let cap = max (2 * Bytes.length t.wbuf) (t.wlen + n) in
    let nb = Bytes.create cap in
    Bytes.blit t.wbuf 0 nb 0 t.wlen;
    t.wbuf <- nb
  end

(* Make room for [n] more bytes; returns their logical offset.  The
   caller fills [wbuf] at [wlen] and then advances [wlen]. *)
let claim t n =
  if not t.writable then failwith "Segment.append: sealed segment";
  reserve t n;
  t.written + t.wlen

let append t ~kind ~key ~(data : D2_util.Slice.t) =
  let off = claim t (Record.encoded_len ~data_len:data.len) in
  t.wlen <- t.wlen + Record.encode_into t.wbuf ~off:t.wlen ~kind ~key ~data;
  off

let append_encoded t buf ~off ~len =
  let at = claim t len in
  Bytes.blit buf off t.wbuf t.wlen len;
  t.wlen <- t.wlen + len;
  at

let write_fully fd buf off len =
  let o = ref off and remaining = ref len in
  while !remaining > 0 do
    let n = Unix.write fd buf !o !remaining in
    o := !o + n;
    remaining := !remaining - n
  done

let flush t ~fsync =
  if t.wlen > 0 then begin
    write_fully t.fd t.wbuf 0 t.wlen;
    t.written <- t.written + t.wlen;
    t.wlen <- 0;
    (* Shrink a burst-grown buffer back toward the floor. *)
    if Bytes.length t.wbuf > 1 lsl 20 then t.wbuf <- Bytes.create 65536
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
  if buf_n > 0 then
    Bytes.blit t.wbuf (off + file_n - t.written) buf (dst_off + file_n) buf_n

let read_all t =
  let n = t.written in
  let buf = Bytes.create n in
  let got = ref 0 in
  while !got < n do
    let r = pread_stub t.fd buf !got (n - !got) !got in
    if r = 0 then failwith "Segment.read_all: short read";
    got := !got + r
  done;
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
