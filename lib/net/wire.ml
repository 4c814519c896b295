module Key = D2_keyspace.Key
module Version = D2_sync.Version
module Digest = D2_sync.Digest
module Bytebuf = Transport.Bytebuf
module Slice = D2_util.Slice

(* Bumped whenever the frame set or a frame layout changes; exchanged
   in the transport hello so a mixed-version cluster fails fast with a
   clear error instead of a mid-stream decode error.  2: version
   vectors on Put/Put_ack/Remove plus the anti-entropy messages
   (tags 16-24).  3: [Fetch] carries the reader's vector.  4: a
   version is one fixed (stamp, node) field, [Put_ack] carries no
   version and [Remove_ack] carries the copy count. *)
let protocol_version = 4

let max_payload = 8192
let max_members = 4096
let max_error = 1024
let max_sync_items = Digest.max_items

(* Largest body is a full Join_ack: u16 count + count * (u32 node +
   64-byte id).  Every other message is far below it — the worst
   Sync_keys_ack (max_sync_items entries, each a key + a 12-byte
   version + a flag) is about 20 KB. *)
let max_frame = 9 + 2 + (max_members * (4 + Key.size))

type msg =
  | Lookup of { key : Key.t }
  | Owner of { node : int; lo : Key.t; hi : Key.t }
  | Redirect of { next : int }
  | Get of { key : Key.t }
  | Found of { data : Slice.t }
  | Missing
  | Put of { key : Key.t; depth : int; version : Version.t; data : Slice.t }
  | Put_ack of { copies : int }
  | Remove of { key : Key.t; depth : int; version : Version.t }
  | Remove_ack of { copies : int; removed : bool }
  | Join of { node : int; id : Key.t }
  | Join_ack of { members : (int * Key.t) list }
  | Probe
  | Probe_ack of { node : int; epoch : int }
  | Error of { code : int; message : string }
  | Sync_digests of { lo : Key.t; hi : Key.t; prefix : int; bits : int }
  | Sync_digests_ack of { children : (int * int) array }
  | Sync_keys of { lo : Key.t; hi : Key.t; prefix : int; bits : int }
  | Sync_keys_ack of { items : (Key.t * Version.t * bool) list }
  | Fetch of { key : Key.t; have : Version.t }
  | Fetch_ack of { version : Version.t; deleted : bool; data : Slice.t option }
  | Push of { key : Key.t; version : Version.t; deleted : bool; data : Slice.t }
  | Push_ack of { stored : bool }
  | Get_q of { key : Key.t; q : int }

let is_request = function
  | Lookup _ | Get _ | Put _ | Remove _ | Join _ | Probe | Sync_digests _
  | Sync_keys _ | Fetch _ | Push _ | Get_q _ ->
      true
  | Owner _ | Redirect _ | Found _ | Missing | Put_ack _ | Remove_ack _
  | Join_ack _ | Probe_ack _ | Error _ | Sync_digests_ack _ | Sync_keys_ack _
  | Fetch_ack _ | Push_ack _ ->
      false

(* The deepest bucket each anti-entropy probe may name: a digest probe
   must leave [Digest.fanout_bits] to split its children by, a key
   probe may reach the last hash bit.  A prefix names one bucket at
   its depth.  Both directions check a probe here, so a peer can never
   hand the digest code a bucket it cannot address. *)
let probe_error ~max_bits ~prefix ~bits =
  if bits > max_bits then Some "probe below max_bits"
  else if prefix >= 1 lsl bits then Some "prefix wider than bits"
  else None

let max_digest_bits = Digest.max_bits - Digest.fanout_bits

let u32_max = 0xffff_ffff

(* Field writers: each appends one field at the buffer's write cursor
   and checks the field's range or cap as it writes.  They fill the
   buffer's record directly and leave this module only to grow it: a
   frame has a dozen fields, and under dune's default profile every
   call into another module is a real call (no cross-module inlining),
   which doubled the encode micro's ns per frame. *)
module W = struct
  let[@inline never] out_of_range what v max =
    invalid_arg (Printf.sprintf "Wire.encode: %s %d outside [0, %d]" what v max)

  let[@inline] check what v ~max =
    if v < 0 || v > max then out_of_range what v max

  let check_cap what n ~cap =
    if n > cap then
      invalid_arg (Printf.sprintf "Wire.encode: %s %d exceeds %d" what n cap)

  (* Claim [n] bytes at the write cursor; returns their offset. *)
  let[@inline] room (b : Bytebuf.t) n =
    if Bytes.length b.buf - b.w < n then Bytebuf.ensure b n;
    let o = b.w in
    b.w <- o + n;
    o

  let[@inline] byte b v =
    let o = room b 1 in
    Bytes.set_uint8 b.buf o v

  let tag = byte (* a constant, always in range *)
  let flag b v = byte b (if v then 1 else 0)

  let u8 b what v =
    check what v ~max:0xff;
    byte b v

  let u16 b what v =
    check what v ~max:0xffff;
    let o = room b 2 in
    Bytes.set_uint16_be b.buf o v

  let u32 b what v =
    check what v ~max:u32_max;
    let o = room b 4 in
    Bytes.set_int32_be b.buf o (Int32.of_int v)

  let raw b s =
    let n = String.length s in
    let o = room b n in
    Bytes.blit_string s 0 b.buf o n

  let key b k = raw b (Key.to_string k)

  let version (b : Bytebuf.t) v =
    let o = room b Version.size in
    Version.encode_into v b.buf ~off:o

  (* u16 element count of a capped list (or string). *)
  let count b what n ~cap =
    check_cap what n ~cap;
    u16 b what n

  let payload b (s : Slice.t) =
    check_cap "payload" s.len ~cap:max_payload;
    u32 b "payload length" s.len;
    let o = room b s.len in
    Bytes.blit s.buf s.off b.buf o s.len

  let probe b ~max_bits ~lo ~hi ~prefix ~bits =
    key b lo;
    key b hi;
    u32 b "prefix" prefix;
    u8 b "bits" bits;
    Option.iter
      (fun why -> invalid_arg ("Wire.encode: " ^ why))
      (probe_error ~max_bits ~prefix ~bits)
end

let write b ~req msg =
  let start = Bytebuf.length b in
  match
    W.u32 b "frame length" 0 (* patched below *);
    W.u32 b "request id" req;
    match msg with
    | Lookup { key } -> W.tag b 1; W.key b key
    | Owner { node; lo; hi } ->
        W.tag b 2;
        W.u32 b "node" node;
        W.key b lo;
        W.key b hi
    | Redirect { next } -> W.tag b 3; W.u32 b "next" next
    | Get { key } -> W.tag b 4; W.key b key
    | Found { data } -> W.tag b 5; W.payload b data
    | Missing -> W.tag b 6
    | Put { key; depth; version; data } ->
        W.tag b 7;
        W.key b key;
        W.u8 b "depth" depth;
        W.version b version;
        W.payload b data
    | Put_ack { copies } -> W.tag b 8; W.u32 b "copies" copies
    | Remove { key; depth; version } ->
        W.tag b 9;
        W.key b key;
        W.u8 b "depth" depth;
        W.version b version
    | Remove_ack { copies; removed } ->
        W.tag b 10;
        W.u32 b "copies" copies;
        W.flag b removed
    | Join { node; id } ->
        W.tag b 11;
        W.u32 b "node" node;
        W.key b id
    | Join_ack { members } ->
        W.tag b 12;
        W.count b "members" (List.length members) ~cap:max_members;
        List.iter
          (fun (n, id) ->
            W.u32 b "member node" n;
            W.key b id)
          members
    | Probe -> W.tag b 13
    | Probe_ack { node; epoch } ->
        W.tag b 14;
        W.u32 b "node" node;
        W.u32 b "epoch" epoch
    | Error { code; message } ->
        W.tag b 15;
        W.u32 b "code" code;
        W.count b "error message" (String.length message) ~cap:max_error;
        W.raw b message
    | Sync_digests { lo; hi; prefix; bits } ->
        W.tag b 16;
        W.probe b ~max_bits:max_digest_bits ~lo ~hi ~prefix ~bits
    | Sync_digests_ack { children } ->
        W.tag b 17;
        if Array.length children <> Digest.fanout then
          invalid_arg "Wire.encode: digest ack must carry 16 children";
        W.u8 b "children" Digest.fanout;
        Array.iter
          (fun (sum, count) ->
            W.u32 b "digest sum" sum;
            W.u32 b "digest count" count)
          children
    | Sync_keys { lo; hi; prefix; bits } ->
        W.tag b 18;
        W.probe b ~max_bits:Digest.max_bits ~lo ~hi ~prefix ~bits
    | Sync_keys_ack { items } ->
        W.tag b 19;
        W.count b "sync items" (List.length items) ~cap:max_sync_items;
        List.iter
          (fun (k, version, deleted) ->
            W.key b k;
            W.version b version;
            W.flag b deleted)
          items
    | Fetch { key; have } ->
        W.tag b 20;
        W.key b key;
        W.version b have
    | Fetch_ack { version; deleted; data } -> (
        W.tag b 21;
        W.version b version;
        W.u8 b "flags"
          ((if deleted then 1 else 0) lor if Option.is_some data then 2 else 0);
        match data with None -> () | Some d -> W.payload b d)
    | Push { key; version; deleted; data } ->
        W.tag b 22;
        W.key b key;
        W.version b version;
        W.flag b deleted;
        W.payload b data
    | Push_ack { stored } -> W.tag b 23; W.flag b stored
    | Get_q { key; q } ->
        W.tag b 24;
        W.key b key;
        W.u8 b "quorum" q
  with
  | () ->
      let len = Bytebuf.length b - start in
      Bytebuf.patch_u32 b ~at:start (len - 4);
      len
  | exception (Invalid_argument _ as e) ->
      Bytebuf.truncate b start;
      raise e

let encode ~req msg =
  let b = Bytebuf.create () in
  let n = write b ~req msg in
  let buf, off, _ = Bytebuf.peek b in
  Bytes.sub buf off n

let encode_into buf ~off ~req msg =
  let frame = encode ~req msg in
  let n = Bytes.length frame in
  if off < 0 || off + n > Bytes.length buf then
    invalid_arg "Wire.encode_into: buffer too small";
  Bytes.blit frame 0 buf off n;
  n

(* Measured by encoding into a per-domain scratch buffer, so counting
   a block-carrying frame's bytes (repair accounting) copies the block
   once more but allocates nothing. *)
let measure = Domain.DLS.new_key (fun () -> Bytebuf.create ())

let frame_length msg =
  let b = Domain.DLS.get measure in
  let n = write b ~req:0 msg in
  Bytebuf.truncate b 0;
  n

let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land u32_max

type error = Short | Malformed of string

(* Body parsing uses a poor-man's cursor over the declared body
   window; any read past the window is a [Malformed] frame (the frame
   is complete — missing fields cannot appear later). *)
exception Bad of string

let decode buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    Stdlib.Error (Malformed "window outside buffer")
  else if len < 4 then Stdlib.Error Short
  else
    let flen = get_u32 buf off in
    if flen < 5 then Stdlib.Error (Malformed "frame length below header size")
    else if flen + 4 > max_frame then
      Stdlib.Error (Malformed "frame length exceeds max_frame")
    else if len < flen + 4 then Stdlib.Error Short
    else begin
      let req = get_u32 buf (off + 4) in
      let tag = Bytes.get_uint8 buf (off + 8) in
      let body = off + 9 in
      let body_len = flen - 5 in
      let stop = body + body_len in
      let pos = ref body in
      let need n =
        if !pos + n > stop then raise (Bad "truncated body");
        let p = !pos in
        pos := p + n;
        p
      in
      let u8 () = Bytes.get_uint8 buf (need 1) in
      let u16 () = Bytes.get_uint16_be buf (need 2) in
      let u32 () = get_u32 buf (need 4) in
      let key () = Key.of_string (Bytes.sub_string buf (need Key.size) Key.size) in
      let count ~cap what =
        let n = u16 () in
        if n > cap then raise (Bad (what ^ " exceeds cap"));
        n
      in
      (* Borrowed, not copied: see [Reader.next]. *)
      let payload () =
        let n = u32 () in
        if n > max_payload then raise (Bad "payload exceeds cap");
        Slice.v buf ~off:(need n) ~len:n
      in
      let version () =
        match Version.decode buf ~off:(need Version.size) with
        | None -> raise (Bad "malformed version")
        | Some v -> v
      in
      let probe ~max_bits =
        let lo = key () in
        let hi = key () in
        let prefix = u32 () in
        let bits = u8 () in
        match probe_error ~max_bits ~prefix ~bits with
        | Some why -> raise (Bad why)
        | None -> (lo, hi, prefix, bits)
      in
      match
        let msg =
          match tag with
          | 1 -> Lookup { key = key () }
          | 2 ->
              let node = u32 () in
              let lo = key () in
              let hi = key () in
              Owner { node; lo; hi }
          | 3 -> Redirect { next = u32 () }
          | 4 -> Get { key = key () }
          | 5 -> Found { data = payload () }
          | 6 -> Missing
          | 7 ->
              let key = key () in
              let depth = u8 () in
              let version = version () in
              Put { key; depth; version; data = payload () }
          | 8 -> Put_ack { copies = u32 () }
          | 9 ->
              let key = key () in
              let depth = u8 () in
              Remove { key; depth; version = version () }
          | 10 ->
              let copies = u32 () in
              Remove_ack { copies; removed = u8 () <> 0 }
          | 11 ->
              let node = u32 () in
              Join { node; id = key () }
          | 12 ->
              let count = count ~cap:max_members "membership list" in
              let members =
                List.init count (fun _ ->
                    let n = u32 () in
                    let id = key () in
                    (n, id))
              in
              Join_ack { members }
          | 13 -> Probe
          | 14 ->
              let node = u32 () in
              Probe_ack { node; epoch = u32 () }
          | 15 ->
              let code = u32 () in
              let n = count ~cap:max_error "error message" in
              Error { code; message = Bytes.sub_string buf (need n) n }
          | 16 ->
              let lo, hi, prefix, bits = probe ~max_bits:max_digest_bits in
              Sync_digests { lo; hi; prefix; bits }
          | 17 ->
              let n = u8 () in
              if n <> Digest.fanout then
                raise (Bad "digest ack child count must be 16");
              let children = Array.make n (0, 0) in
              for i = 0 to n - 1 do
                let sum = u32 () in
                let count = u32 () in
                children.(i) <- (sum, count)
              done;
              Sync_digests_ack { children }
          | 18 ->
              let lo, hi, prefix, bits = probe ~max_bits:Digest.max_bits in
              Sync_keys { lo; hi; prefix; bits }
          | 19 ->
              let count = count ~cap:max_sync_items "sync item list" in
              let items =
                List.init count (fun _ ->
                    let k = key () in
                    let v = version () in
                    let deleted = u8 () <> 0 in
                    (k, v, deleted))
              in
              Sync_keys_ack { items }
          | 20 ->
              let key = key () in
              Fetch { key; have = version () }
          | 21 ->
              let version = version () in
              let flags = u8 () in
              if flags land lnot 3 <> 0 then raise (Bad "unknown fetch flags");
              let data = if flags land 2 <> 0 then Some (payload ()) else None in
              Fetch_ack { version; deleted = flags land 1 <> 0; data }
          | 22 ->
              let key = key () in
              let version = version () in
              let deleted = u8 () <> 0 in
              Push { key; version; deleted; data = payload () }
          | 23 -> Push_ack { stored = u8 () <> 0 }
          | 24 ->
              let key = key () in
              Get_q { key; q = u8 () }
          | t -> raise (Bad (Printf.sprintf "unknown tag %d" t))
        in
        if !pos <> stop then raise (Bad "trailing bytes in frame");
        msg
      with
      | msg -> Ok (req, msg, flen + 4)
      | exception Bad why -> Stdlib.Error (Malformed why)
    end

module Reader = struct
  type t = Bytebuf.t

  let create () = Bytebuf.create ~capacity:max_frame ()

  let next t =
    let buf, off, len = Bytebuf.peek t in
    match decode buf ~off ~len with
    | Ok (req, msg, consumed) ->
        Bytebuf.consume t consumed;
        Bytebuf.shrink t ~floor:max_frame;
        `Msg (req, msg)
    | Stdlib.Error Short ->
        (* The partial frame moves to the front, so the next read
           lands behind it without growing the buffer. *)
        Bytebuf.compact t;
        `Awaiting
    | Stdlib.Error (Malformed why) -> `Corrupt why
end
