module Key = D2_keyspace.Key
module Vv = D2_sync.Version_vector

(* Bumped whenever the frame set or a frame layout changes; exchanged
   in the transport hello so a mixed-version cluster fails fast with a
   clear error instead of a mid-stream decode error.  2: version
   vectors on Put/Put_ack/Remove plus the anti-entropy messages
   (tags 16-24). *)
let protocol_version = 2
let vv_empty = Vv.empty

let max_payload = 8192
let max_members = 4096
let max_error = 1024
let max_sync_items = 256

(* Largest body is a full Join_ack: u16 count + count * (u32 node +
   64-byte id).  Every other message is far below it — the worst
   Sync_keys_ack (max_sync_items entries, each a key + a full
   version vector + a flag) is about half. *)
let max_frame = 9 + 2 + (max_members * (4 + Key.size))

type msg =
  | Lookup of { key : Key.t }
  | Owner of { node : int; lo : Key.t; hi : Key.t }
  | Redirect of { next : int }
  | Get of { key : Key.t }
  | Found of { data : string }
  | Missing
  | Put of { key : Key.t; depth : int; vv : Vv.t; data : string }
  | Put_ack of { copies : int; vv : Vv.t }
  | Remove of { key : Key.t; depth : int; vv : Vv.t }
  | Remove_ack of { removed : bool }
  | Join of { node : int; id : Key.t }
  | Join_ack of { members : (int * Key.t) list }
  | Probe
  | Probe_ack of { node : int; epoch : int }
  | Error of { code : int; message : string }
  | Sync_digests of { lo : Key.t; hi : Key.t; prefix : int; bits : int }
  | Sync_digests_ack of { children : (int * int) array }
  | Sync_keys of { lo : Key.t; hi : Key.t; prefix : int; bits : int }
  | Sync_keys_ack of { items : (Key.t * Vv.t * bool) list }
  | Fetch of { key : Key.t }
  | Fetch_ack of { vv : Vv.t; deleted : bool; data : string option }
  | Push of { key : Key.t; vv : Vv.t; deleted : bool; data : string }
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

let tag_of = function
  | Lookup _ -> 1
  | Owner _ -> 2
  | Redirect _ -> 3
  | Get _ -> 4
  | Found _ -> 5
  | Missing -> 6
  | Put _ -> 7
  | Put_ack _ -> 8
  | Remove _ -> 9
  | Remove_ack _ -> 10
  | Join _ -> 11
  | Join_ack _ -> 12
  | Probe -> 13
  | Probe_ack _ -> 14
  | Error _ -> 15
  | Sync_digests _ -> 16
  | Sync_digests_ack _ -> 17
  | Sync_keys _ -> 18
  | Sync_keys_ack _ -> 19
  | Fetch _ -> 20
  | Fetch_ack _ -> 21
  | Push _ -> 22
  | Push_ack _ -> 23
  | Get_q _ -> 24

let body_length = function
  | Lookup _ | Get _ | Fetch _ -> Key.size
  | Owner _ -> 4 + Key.size + Key.size
  | Redirect _ -> 4
  | Found { data } -> 4 + String.length data
  | Missing | Probe -> 0
  | Put { vv; data; _ } ->
      Key.size + 1 + Vv.encoded_size vv + 4 + String.length data
  | Put_ack { vv; _ } -> 4 + Vv.encoded_size vv
  | Remove { vv; _ } -> Key.size + 1 + Vv.encoded_size vv
  | Remove_ack _ -> 1
  | Join _ -> 4 + Key.size
  | Join_ack { members } -> 2 + (List.length members * (4 + Key.size))
  | Probe_ack _ -> 8
  | Error { message; _ } -> 4 + 2 + String.length message
  | Sync_digests _ | Sync_keys _ -> Key.size + Key.size + 4 + 1
  | Sync_digests_ack { children } -> 1 + (Array.length children * 8)
  | Sync_keys_ack { items } ->
      2
      + List.fold_left
          (fun acc (_, vv, _) -> acc + Key.size + Vv.encoded_size vv + 1)
          0 items
  | Fetch_ack { vv; data; _ } -> (
      Vv.encoded_size vv + 1
      + match data with None -> 0 | Some d -> 4 + String.length d)
  | Push { vv; data; _ } ->
      Key.size + Vv.encoded_size vv + 1 + 4 + String.length data
  | Push_ack _ -> 1
  | Get_q _ -> Key.size + 1

let frame_length msg = 9 + body_length msg

let u32_max = 0xffff_ffff

let check_u32 what v =
  if v < 0 || v > u32_max then
    invalid_arg (Printf.sprintf "Wire.encode: %s %d outside u32" what v)

let check_u8 what v =
  if v < 0 || v > 0xff then
    invalid_arg (Printf.sprintf "Wire.encode: %s %d outside u8" what v)

let validate msg =
  (match msg with
  | Found { data } | Put { data; _ } | Push { data; _ }
  | Fetch_ack { data = Some data; _ } ->
      if String.length data > max_payload then
        invalid_arg "Wire.encode: payload exceeds max_payload"
  | Join_ack { members } ->
      if List.length members > max_members then
        invalid_arg "Wire.encode: membership list exceeds max_members";
      List.iter (fun (n, _) -> check_u32 "member node" n) members
  | Error { message; _ } ->
      if String.length message > max_error then
        invalid_arg "Wire.encode: error message exceeds max_error"
  | Sync_keys_ack { items } ->
      if List.length items > max_sync_items then
        invalid_arg "Wire.encode: sync item list exceeds max_sync_items"
  | _ -> ());
  match msg with
  | Owner { node; _ } -> check_u32 "node" node
  | Redirect { next } -> check_u32 "next" next
  | Put { depth; _ } | Remove { depth; _ } -> check_u8 "depth" depth
  | Put_ack { copies; _ } -> check_u32 "copies" copies
  | Join { node; _ } -> check_u32 "node" node
  | Probe_ack { node; epoch } ->
      check_u32 "node" node;
      check_u32 "epoch" epoch
  | Error { code; _ } -> check_u32 "code" code
  | Sync_digests { prefix; bits; _ } | Sync_keys { prefix; bits; _ } ->
      check_u32 "prefix" prefix;
      check_u8 "bits" bits
  | Sync_digests_ack { children } ->
      if Array.length children <> 16 then
        invalid_arg "Wire.encode: digest ack must carry 16 children";
      Array.iter
        (fun (sum, count) ->
          check_u32 "digest sum" sum;
          check_u32 "digest count" count)
        children
  | Get_q { q; _ } -> check_u8 "quorum" q
  | _ -> ()

let set_u32 b off v = Bytes.set_int32_be b off (Int32.of_int v)
let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land u32_max

let set_key b off k = Bytes.blit_string (Key.to_string k) 0 b off Key.size

(* Returns the offset past the encoded vector, so callers thread it as
   a cursor through variable-length bodies. *)
let set_vv b off vv = off + Vv.encode_into vv b ~off

let encode_into buf ~off ~req msg =
  check_u32 "request id" req;
  validate msg;
  let len = frame_length msg in
  if off < 0 || off + len > Bytes.length buf then
    invalid_arg "Wire.encode_into: buffer too small";
  set_u32 buf off (len - 4);
  set_u32 buf (off + 4) req;
  Bytes.set_uint8 buf (off + 8) (tag_of msg);
  let p = off + 9 in
  (match msg with
  | Lookup { key } | Get { key } -> set_key buf p key
  | Owner { node; lo; hi } ->
      set_u32 buf p node;
      set_key buf (p + 4) lo;
      set_key buf (p + 4 + Key.size) hi
  | Redirect { next } -> set_u32 buf p next
  | Found { data } ->
      set_u32 buf p (String.length data);
      Bytes.blit_string data 0 buf (p + 4) (String.length data)
  | Missing | Probe -> ()
  | Put { key; depth; vv; data } ->
      set_key buf p key;
      Bytes.set_uint8 buf (p + Key.size) depth;
      let q = set_vv buf (p + Key.size + 1) vv in
      set_u32 buf q (String.length data);
      Bytes.blit_string data 0 buf (q + 4) (String.length data)
  | Put_ack { copies; vv } ->
      set_u32 buf p copies;
      ignore (set_vv buf (p + 4) vv)
  | Remove { key; depth; vv } ->
      set_key buf p key;
      Bytes.set_uint8 buf (p + Key.size) depth;
      ignore (set_vv buf (p + Key.size + 1) vv)
  | Remove_ack { removed } -> Bytes.set_uint8 buf p (if removed then 1 else 0)
  | Join { node; id } ->
      set_u32 buf p node;
      set_key buf (p + 4) id
  | Join_ack { members } ->
      Bytes.set_uint16_be buf p (List.length members);
      List.iteri
        (fun i (n, id) ->
          let q = p + 2 + (i * (4 + Key.size)) in
          set_u32 buf q n;
          set_key buf (q + 4) id)
        members
  | Probe_ack { node; epoch } ->
      set_u32 buf p node;
      set_u32 buf (p + 4) epoch
  | Error { code; message } ->
      set_u32 buf p code;
      Bytes.set_uint16_be buf (p + 4) (String.length message);
      Bytes.blit_string message 0 buf (p + 6) (String.length message)
  | Sync_digests { lo; hi; prefix; bits } | Sync_keys { lo; hi; prefix; bits }
    ->
      set_key buf p lo;
      set_key buf (p + Key.size) hi;
      set_u32 buf (p + (2 * Key.size)) prefix;
      Bytes.set_uint8 buf (p + (2 * Key.size) + 4) bits
  | Sync_digests_ack { children } ->
      Bytes.set_uint8 buf p (Array.length children);
      Array.iteri
        (fun i (sum, count) ->
          set_u32 buf (p + 1 + (8 * i)) sum;
          set_u32 buf (p + 5 + (8 * i)) count)
        children
  | Sync_keys_ack { items } ->
      Bytes.set_uint16_be buf p (List.length items);
      let q = ref (p + 2) in
      List.iter
        (fun (k, vv, deleted) ->
          set_key buf !q k;
          let r = set_vv buf (!q + Key.size) vv in
          Bytes.set_uint8 buf r (if deleted then 1 else 0);
          q := r + 1)
        items
  | Fetch { key } -> set_key buf p key
  | Fetch_ack { vv; deleted; data } ->
      let q = set_vv buf p vv in
      let flags =
        (if deleted then 1 else 0) lor match data with Some _ -> 2 | None -> 0
      in
      Bytes.set_uint8 buf q flags;
      (match data with
      | None -> ()
      | Some d ->
          set_u32 buf (q + 1) (String.length d);
          Bytes.blit_string d 0 buf (q + 5) (String.length d))
  | Push { key; vv; deleted; data } ->
      set_key buf p key;
      let q = set_vv buf (p + Key.size) vv in
      Bytes.set_uint8 buf q (if deleted then 1 else 0);
      set_u32 buf (q + 1) (String.length data);
      Bytes.blit_string data 0 buf (q + 5) (String.length data)
  | Push_ack { stored } -> Bytes.set_uint8 buf p (if stored then 1 else 0)
  | Get_q { key; q } ->
      set_key buf p key;
      Bytes.set_uint8 buf (p + Key.size) q);
  len

let encode ~req msg =
  let buf = Bytes.create (frame_length msg) in
  ignore (encode_into buf ~off:0 ~req msg);
  buf

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
      let payload ~cap what =
        let n = u32 () in
        if n > cap then raise (Bad (what ^ " exceeds cap"));
        Bytes.sub_string buf (need n) n
      in
      let vv () =
        match Vv.decode buf ~off:!pos ~stop with
        | None -> raise (Bad "malformed version vector")
        | Some (v, consumed) ->
            pos := !pos + consumed;
            v
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
          | 5 -> Found { data = payload ~cap:max_payload "payload" }
          | 6 -> Missing
          | 7 ->
              let key = key () in
              let depth = u8 () in
              let vv = vv () in
              Put { key; depth; vv; data = payload ~cap:max_payload "payload" }
          | 8 ->
              let copies = u32 () in
              Put_ack { copies; vv = vv () }
          | 9 ->
              let key = key () in
              let depth = u8 () in
              Remove { key; depth; vv = vv () }
          | 10 -> Remove_ack { removed = u8 () <> 0 }
          | 11 ->
              let node = u32 () in
              Join { node; id = key () }
          | 12 ->
              let count = u16 () in
              if count > max_members then raise (Bad "membership list exceeds cap");
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
              let n = u16 () in
              if n > max_error then raise (Bad "error message exceeds cap");
              Error { code; message = Bytes.sub_string buf (need n) n }
          | 16 | 18 ->
              let lo = key () in
              let hi = key () in
              let prefix = u32 () in
              let bits = u8 () in
              if tag = 16 then Sync_digests { lo; hi; prefix; bits }
              else Sync_keys { lo; hi; prefix; bits }
          | 17 ->
              let n = u8 () in
              if n <> 16 then raise (Bad "digest ack child count must be 16");
              let children = Array.make n (0, 0) in
              for i = 0 to n - 1 do
                let sum = u32 () in
                let count = u32 () in
                children.(i) <- (sum, count)
              done;
              Sync_digests_ack { children }
          | 19 ->
              let count = u16 () in
              if count > max_sync_items then
                raise (Bad "sync item list exceeds cap");
              let items =
                List.init count (fun _ ->
                    let k = key () in
                    let v = vv () in
                    let deleted = u8 () <> 0 in
                    (k, v, deleted))
              in
              Sync_keys_ack { items }
          | 20 -> Fetch { key = key () }
          | 21 ->
              let vv = vv () in
              let flags = u8 () in
              if flags land lnot 3 <> 0 then raise (Bad "unknown fetch flags");
              let data =
                if flags land 2 <> 0 then
                  Some (payload ~cap:max_payload "payload")
                else None
              in
              Fetch_ack { vv; deleted = flags land 1 <> 0; data }
          | 22 ->
              let key = key () in
              let vv = vv () in
              let deleted = u8 () <> 0 in
              Push { key; vv; deleted; data = payload ~cap:max_payload "payload" }
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
  type t = {
    mutable buf : Bytes.t;
    mutable r : int;
    mutable w : int;
    floor : int;  (** capacity the buffer settles back to when drained *)
  }

  let initial_capacity = 4096

  let create ?(capacity = initial_capacity) () =
    let floor = max capacity max_frame in
    { buf = Bytes.create floor; r = 0; w = 0; floor }

  let pending_bytes t = t.w - t.r
  let capacity t = Bytes.length t.buf

  (* A pipelined burst can grow the buffer far past the steady-state
     capacity; once the stream drains, give the memory back gradually
     (halving per drain) instead of holding the high-water mark
     forever.  The floor is the creation capacity (at least
     [max_frame], past which a single in-progress frame never needs
     the buffer to grow), so a reader sized for its transport's read
     chunk does not oscillate between shrink and regrow on every
     batch. *)
  let shrink_drained t =
    let cap = Bytes.length t.buf in
    if cap > t.floor then t.buf <- Bytes.create (max (cap / 2) t.floor)

  let compact t =
    if t.r > 0 then begin
      let n = t.w - t.r in
      Bytes.blit t.buf t.r t.buf 0 n;
      t.r <- 0;
      t.w <- n
    end

  let reserve t n =
    if Bytes.length t.buf - t.w < n then begin
      compact t;
      if Bytes.length t.buf - t.w < n then begin
        let cap = max (2 * Bytes.length t.buf) (t.w + n) in
        let nb = Bytes.create cap in
        Bytes.blit t.buf 0 nb 0 t.w;
        t.buf <- nb
      end
    end;
    (t.buf, t.w)

  let commit t n =
    if n < 0 || t.w + n > Bytes.length t.buf then
      invalid_arg "Wire.Reader.commit: bad count";
    t.w <- t.w + n

  let feed t src ~off ~len =
    let buf, o = reserve t len in
    Bytes.blit src off buf o len;
    commit t len

  let next t =
    match decode t.buf ~off:t.r ~len:(t.w - t.r) with
    | Ok (req, msg, consumed) ->
        t.r <- t.r + consumed;
        if t.r = t.w then begin
          t.r <- 0;
          t.w <- 0;
          shrink_drained t
        end;
        `Msg (req, msg)
    | Stdlib.Error Short ->
        compact t;
        `Awaiting
    | Stdlib.Error (Malformed why) -> `Corrupt why
end
