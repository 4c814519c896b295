(* Wire-codec properties: random frames round-trip bit-exactly,
   truncated windows say [Short], corrupted bytes never raise, and the
   stream reader reassembles frames across arbitrary chunking. *)

module Wire = D2_net.Wire
module Bytebuf = D2_net.Transport.Bytebuf
module Key = D2_keyspace.Key
module Rng = D2_util.Rng
module Slice = D2_util.Slice

module Version = D2_sync.Version

let key_of_rng rng = Key.random rng

(* Zero one time in four, else a stamp up to about 2^52 µs. *)
let random_version rng =
  if Rng.int rng 4 = 0 then Version.zero
  else
    Version.next Version.zero ~node:(Rng.int rng 100_000)
      ~now:(Rng.float rng 4e9)

let random_payload rng =
  (* Bias towards the edges: empty, one byte, and the max 8 KB block. *)
  let n =
    match Rng.int rng 5 with
    | 0 -> 0
    | 1 -> 1
    | 2 -> Wire.max_payload
    | _ -> Rng.int rng Wire.max_payload
  in
  Slice.of_string (String.init n (fun _ -> Char.chr (Rng.int rng 256)))

(* A probe the digest trie can address: at most [max_bits] deep, with
   a prefix that names one bucket at that depth. *)
let random_probe rng ~max_bits =
  let bits = Rng.int rng (max_bits + 1) in
  (bits, Rng.int rng (1 lsl bits))

let random_msg rng =
  match Rng.int rng 24 with
  | 0 -> Wire.Lookup { key = key_of_rng rng }
  | 1 ->
      Wire.Owner
        { node = Rng.int rng 100_000; lo = key_of_rng rng; hi = key_of_rng rng }
  | 2 -> Wire.Redirect { next = Rng.int rng 100_000 }
  | 3 -> Wire.Get { key = key_of_rng rng }
  | 4 -> Wire.Found { data = random_payload rng }
  | 5 -> Wire.Missing
  | 6 ->
      Wire.Put
        {
          key = key_of_rng rng;
          depth = Rng.int rng 8;
          version = random_version rng;
          data = random_payload rng;
        }
  | 7 -> Wire.Put_ack { copies = Rng.int rng 16 }
  | 8 ->
      Wire.Remove
        {
          key = key_of_rng rng;
          depth = Rng.int rng 8;
          version = random_version rng;
        }
  | 9 -> Wire.Remove_ack { copies = Rng.int rng 16; removed = Rng.bool rng }
  | 10 -> Wire.Join { node = Rng.int rng 100_000; id = key_of_rng rng }
  | 11 ->
      let n = Rng.int rng 40 in
      Wire.Join_ack
        { members = List.init n (fun i -> (i * 3, key_of_rng rng)) }
  | 12 -> Wire.Probe
  | 13 -> Wire.Probe_ack { node = Rng.int rng 100_000; epoch = Rng.int rng 1_000 }
  | 14 ->
      Wire.Error
        {
          code = Rng.int rng 100;
          message = String.init (Rng.int rng 64) (fun _ -> Char.chr (32 + Rng.int rng 90));
        }
  | 15 ->
      let lo = key_of_rng rng in
      let hi = key_of_rng rng in
      let bits, prefix = random_probe rng ~max_bits:24 in
      Wire.Sync_digests { lo; hi; prefix; bits }
  | 16 ->
      Wire.Sync_digests_ack
        {
          children =
            Array.init 16 (fun _ ->
                (Rng.int rng 0x4000_0000, Rng.int rng 10_000));
        }
  | 17 ->
      let lo = key_of_rng rng in
      let hi = key_of_rng rng in
      let bits, prefix = random_probe rng ~max_bits:28 in
      Wire.Sync_keys { lo; hi; prefix; bits }
  | 18 ->
      let n = Rng.int rng 20 in
      Wire.Sync_keys_ack
        {
          items =
            List.init n (fun _ ->
                (key_of_rng rng, random_version rng, Rng.bool rng));
        }
  | 19 ->
      let key = key_of_rng rng in
      Wire.Fetch { key; have = random_version rng }
  | 20 ->
      Wire.Fetch_ack
        {
          version = random_version rng;
          deleted = Rng.bool rng;
          data = (if Rng.bool rng then Some (random_payload rng) else None);
        }
  | 21 ->
      Wire.Push
        {
          key = key_of_rng rng;
          version = random_version rng;
          deleted = Rng.bool rng;
          data = random_payload rng;
        }
  | 22 -> Wire.Push_ack { stored = Rng.bool rng }
  | _ -> Wire.Get_q { key = key_of_rng rng; q = 1 + Rng.int rng 7 }

let slice_equal a b = String.equal (Slice.to_string a) (Slice.to_string b)

let equal_msg (a : Wire.msg) (b : Wire.msg) =
  match (a, b) with
  | Wire.Lookup { key = k1 }, Wire.Lookup { key = k2 } -> Key.equal k1 k2
  | Wire.Owner { node = n1; lo = l1; hi = h1 }, Wire.Owner { node = n2; lo = l2; hi = h2 }
    ->
      n1 = n2 && Key.equal l1 l2 && Key.equal h1 h2
  | Wire.Redirect { next = n1 }, Wire.Redirect { next = n2 } -> n1 = n2
  | Wire.Get { key = k1 }, Wire.Get { key = k2 } -> Key.equal k1 k2
  | Wire.Found { data = d1 }, Wire.Found { data = d2 } -> slice_equal d1 d2
  | Wire.Missing, Wire.Missing | Wire.Probe, Wire.Probe -> true
  | ( Wire.Put { key = k1; depth = e1; version = v1; data = d1 },
      Wire.Put { key = k2; depth = e2; version = v2; data = d2 } ) ->
      Key.equal k1 k2 && e1 = e2 && Version.equal v1 v2 && slice_equal d1 d2
  | Wire.Put_ack { copies = c1 }, Wire.Put_ack { copies = c2 } -> c1 = c2
  | ( Wire.Remove { key = k1; depth = e1; version = v1 },
      Wire.Remove { key = k2; depth = e2; version = v2 } ) ->
      Key.equal k1 k2 && e1 = e2 && Version.equal v1 v2
  | ( Wire.Remove_ack { copies = c1; removed = r1 },
      Wire.Remove_ack { copies = c2; removed = r2 } ) ->
      c1 = c2 && r1 = r2
  | Wire.Join { node = n1; id = i1 }, Wire.Join { node = n2; id = i2 } ->
      n1 = n2 && Key.equal i1 i2
  | Wire.Join_ack { members = m1 }, Wire.Join_ack { members = m2 } ->
      List.length m1 = List.length m2
      && List.for_all2 (fun (n1, k1) (n2, k2) -> n1 = n2 && Key.equal k1 k2) m1 m2
  | ( Wire.Probe_ack { node = n1; epoch = e1 },
      Wire.Probe_ack { node = n2; epoch = e2 } ) ->
      n1 = n2 && e1 = e2
  | Wire.Error { code = c1; message = m1 }, Wire.Error { code = c2; message = m2 }
    ->
      c1 = c2 && String.equal m1 m2
  | ( Wire.Sync_digests { lo = l1; hi = h1; prefix = p1; bits = b1 },
      Wire.Sync_digests { lo = l2; hi = h2; prefix = p2; bits = b2 } )
  | ( Wire.Sync_keys { lo = l1; hi = h1; prefix = p1; bits = b1 },
      Wire.Sync_keys { lo = l2; hi = h2; prefix = p2; bits = b2 } ) ->
      Key.equal l1 l2 && Key.equal h1 h2 && p1 = p2 && b1 = b2
  | ( Wire.Sync_digests_ack { children = c1 },
      Wire.Sync_digests_ack { children = c2 } ) ->
      c1 = c2
  | Wire.Sync_keys_ack { items = i1 }, Wire.Sync_keys_ack { items = i2 } ->
      List.length i1 = List.length i2
      && List.for_all2
           (fun (k1, v1, d1) (k2, v2, d2) ->
             Key.equal k1 k2 && v1 = v2 && d1 = d2)
           i1 i2
  | Wire.Fetch { key = k1; have = h1 }, Wire.Fetch { key = k2; have = h2 } ->
      Key.equal k1 k2 && h1 = h2
  | ( Wire.Fetch_ack { version = v1; deleted = d1; data = b1 },
      Wire.Fetch_ack { version = v2; deleted = d2; data = b2 } ) ->
      v1 = v2 && d1 = d2 && Option.equal slice_equal b1 b2
  | ( Wire.Push { key = k1; version = v1; deleted = d1; data = b1 },
      Wire.Push { key = k2; version = v2; deleted = d2; data = b2 } ) ->
      Key.equal k1 k2 && v1 = v2 && d1 = d2 && slice_equal b1 b2
  | Wire.Push_ack { stored = s1 }, Wire.Push_ack { stored = s2 } -> s1 = s2
  | Wire.Get_q { key = k1; q = q1 }, Wire.Get_q { key = k2; q = q2 } ->
      Key.equal k1 k2 && q1 = q2
  | _ -> false

let roundtrip_prop seed =
  let rng = Rng.create seed in
  let msg = random_msg rng in
  let req = Rng.int rng 0xffff in
  let frame = Wire.encode ~req msg in
  (Bytes.length frame = Wire.frame_length msg)
  &&
  match Wire.decode frame ~off:0 ~len:(Bytes.length frame) with
  | Ok (req', msg', consumed) ->
      req' = req && consumed = Bytes.length frame && equal_msg msg msg'
  | Error _ -> false

let truncation_prop seed =
  let rng = Rng.create seed in
  let msg = random_msg rng in
  let frame = Wire.encode ~req:7 msg in
  let n = Bytes.length frame in
  let cut = Rng.int rng n in
  match Wire.decode frame ~off:0 ~len:cut with
  | Error Wire.Short -> true
  | Ok _ | Error (Wire.Malformed _) -> false

let corruption_prop seed =
  let rng = Rng.create seed in
  let msg = random_msg rng in
  let frame = Wire.encode ~req:3 msg in
  let n = Bytes.length frame in
  let pos = Rng.int rng n in
  Bytes.set frame pos (Char.chr (Rng.int rng 256));
  (* Any outcome but an exception is acceptable; decode must also not
     read past the window even when the length field was corrupted. *)
  match Wire.decode frame ~off:0 ~len:n with
  | Ok _ | Error Wire.Short | Error (Wire.Malformed _) -> true

let test_oversize_length () =
  let b = Bytes.make 64 '\x00' in
  Bytes.set_int32_be b 0 0x7fffffffl;
  (match Wire.decode b ~off:0 ~len:64 with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "oversize length must be malformed");
  (* A length below the fixed header is also a protocol violation. *)
  Bytes.set_int32_be b 0 2l;
  match Wire.decode b ~off:0 ~len:64 with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "undersize length must be malformed"

let test_unknown_tag () =
  let frame = Wire.encode ~req:1 Wire.Probe in
  Bytes.set_uint8 frame 8 209;
  match Wire.decode frame ~off:0 ~len:(Bytes.length frame) with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "unknown tag must be malformed"

(* In-order arrival check for a stream of [msgs] (request id = index).
   A decoded payload borrows the reader's buffer until the next
   [Reader.next], so each message is compared as it arrives; the
   closing call [check (-1) _] says whether all of them came. *)
let arrivals msgs =
  let msgs = Array.of_list msgs in
  let next = ref 0 in
  fun req m ->
    if req < 0 then !next = Array.length msgs
    else
      let ok = req = !next && req < Array.length msgs && equal_msg msgs.(req) m in
      incr next;
      ok

let reader_chunking_prop seed =
  let rng = Rng.create seed in
  let msgs = List.init (1 + Rng.int rng 12) (fun _ -> random_msg rng) in
  let buf = Buffer.create 1024 in
  List.iteri
    (fun i m -> Buffer.add_bytes buf (Wire.encode ~req:i m))
    msgs;
  let stream = Buffer.to_bytes buf in
  let reader = Wire.Reader.create () in
  let check = arrivals msgs in
  let pos = ref 0 in
  let total = Bytes.length stream in
  let ok = ref true in
  while !pos < total && !ok do
    let chunk = 1 + Rng.int rng 97 in
    let len = min chunk (total - !pos) in
    Bytebuf.write reader stream ~off:!pos ~len;
    pos := !pos + len;
    let drained = ref false in
    while not !drained do
      match Wire.Reader.next reader with
      | `Msg (req, m) -> if not (check req m) then ok := false
      | `Awaiting -> drained := true
      | `Corrupt _ ->
          ok := false;
          drained := true
    done
  done;
  !ok && check (-1) Wire.Probe

(* Pipelined-runtime property: a whole window of K frames lands
   back-to-back in the reader through the zero-copy [reserve]/[commit]
   path (exactly how the transports deliver bytes), split at arbitrary
   boundaries — exactly K messages must come out, in order, request
   ids intact. *)
let reader_pipelined_burst_prop seed =
  let rng = Rng.create seed in
  let k = 1 + Rng.int rng 64 in
  let msgs = List.init k (fun _ -> random_msg rng) in
  let buf = Buffer.create 4096 in
  List.iteri (fun i m -> Buffer.add_bytes buf (Wire.encode ~req:i m)) msgs;
  let stream = Buffer.to_bytes buf in
  let reader = Wire.Reader.create () in
  let check = arrivals msgs in
  let pos = ref 0 in
  let total = Bytes.length stream in
  let ok = ref true in
  while !pos < total && !ok do
    let len = min (1 + Rng.int rng 16384) (total - !pos) in
    let dst, off = Bytebuf.reserve reader len in
    Bytes.blit stream !pos dst off len;
    Bytebuf.commit reader len;
    pos := !pos + len;
    let drained = ref false in
    while not !drained do
      match Wire.Reader.next reader with
      | `Msg (req, m) -> if not (check req m) then ok := false
      | `Awaiting -> drained := true
      | `Corrupt _ ->
          ok := false;
          drained := true
    done
  done;
  !ok && check (-1) Wire.Probe

(* A burst grows the buffer past its creation capacity; each full
   drain halves it back, and it settles exactly at the creation floor,
   [max_frame] — never below, never stuck at the high-water mark. *)
let test_reader_capacity_floor () =
  let reader = Wire.Reader.create () in
  let floor = Bytebuf.capacity reader in
  Alcotest.(check int) "floor is max_frame" Wire.max_frame floor;
  let key = Key.random (Rng.create 0x51) in
  let frame =
    Wire.encode ~req:9
      (Wire.Put
         {
           key;
           depth = 0;
           version = Version.zero;
           data = Slice.of_string (String.make Wire.max_payload 'x');
         })
  in
  let flen = Bytes.length frame in
  let burst_n = ((4 * floor) / flen) + 1 in
  let need = burst_n * flen in
  let dst, off = Bytebuf.reserve reader need in
  for i = 0 to burst_n - 1 do
    Bytes.blit frame 0 dst (off + (i * flen)) flen
  done;
  Bytebuf.commit reader need;
  Alcotest.(check bool) "burst grew past the floor" true
    (Bytebuf.capacity reader > floor);
  let drained = ref 0 in
  let continue = ref true in
  while !continue do
    match Wire.Reader.next reader with
    | `Msg _ -> incr drained
    | `Awaiting -> continue := false
    | `Corrupt why -> Alcotest.fail why
  done;
  Alcotest.(check int) "whole burst decoded" burst_n !drained;
  (* One halving per drained batch: a dozen single-frame rounds is far
     more than log2(high-water / floor). *)
  for _ = 1 to 12 do
    Bytebuf.write reader frame ~off:0 ~len:flen;
    match Wire.Reader.next reader with
    | `Msg _ -> ()
    | `Awaiting | `Corrupt _ -> Alcotest.fail "single frame must decode"
  done;
  Alcotest.(check int) "settled exactly at the creation floor" floor
    (Bytebuf.capacity reader)

(* The frame bytes themselves are pinned: 20,000 seeded frames from
   [random_msg] (request id = index) hash to a fixed digest, so any
   change to any frame's bytes fails here. *)
let test_wire_bytes_pinned () =
  let rng = Rng.create 12345 in
  let buf = Buffer.create (1 lsl 24) in
  for i = 0 to 19_999 do
    Buffer.add_bytes buf (Wire.encode ~req:i (random_msg rng))
  done;
  Alcotest.(check int) "stream length" 12_082_765 (Buffer.length buf);
  Alcotest.(check string) "stream MD5" "46b5daf1e34f94ca8dee38435de16b3d"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* A frame that breaks a bound raises and leaves the output buffer as
   it found it: the frame queued before it still decodes, alone. *)
let test_failed_write_leaves_buffer () =
  let key = Key.random (Rng.create 0x52) in
  let lo = key and hi = key in
  let b = Bytebuf.create () in
  let first = Wire.write b ~req:1 (Wire.Get { key }) in
  List.iter
    (fun (label, msg) ->
      (match Wire.write b ~req:2 msg with
      | _ -> Alcotest.failf "%s encoded" label
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) (label ^ ": length unchanged") first
        (Bytebuf.length b))
    [
      ( "payload over max_payload",
        Wire.Put
          {
            key;
            depth = 1;
            version = Version.zero;
            data = Slice.of_string (String.make (Wire.max_payload + 1) 'x');
          } );
      ( "depth outside u8",
        Wire.Remove { key; depth = 256; version = Version.zero } );
      ( "copies outside u32",
        Wire.Remove_ack { copies = 1 lsl 32; removed = true } );
      ("node outside u32", Wire.Redirect { next = 1 lsl 32 });
      ( "digest probe too deep",
        Wire.Sync_digests { lo; hi; prefix = 0; bits = 25 } );
      ("key probe too deep", Wire.Sync_keys { lo; hi; prefix = 0; bits = 29 });
      ( "prefix wider than bits",
        Wire.Sync_keys { lo; hi; prefix = 4; bits = 2 } );
    ];
  (match Wire.write b ~req:(1 lsl 32) Wire.Probe with
  | _ -> Alcotest.fail "request id outside u32 encoded"
  | exception Invalid_argument _ -> ());
  let buf, off, len = Bytebuf.peek b in
  match Wire.decode buf ~off ~len with
  | Ok (1, Wire.Get { key = k }, used) ->
      Alcotest.(check bool) "same key" true (Key.equal k key);
      Alcotest.(check int) "only frame" len used
  | _ -> Alcotest.fail "earlier frame lost"

(* A probe the digest trie cannot address decodes as [Malformed]: a
   node serving it would fail inside [Digest]. *)
let test_probe_bounds () =
  let key = Key.random (Rng.create 0x53) in
  let frame ~tag ~prefix ~bits =
    (* Encode an in-bounds probe, then rewrite its prefix and bits. *)
    let msg =
      if tag = 16 then
        Wire.Sync_digests { lo = key; hi = key; prefix = 0; bits = 0 }
      else Wire.Sync_keys { lo = key; hi = key; prefix = 0; bits = 0 }
    in
    let f = Wire.encode ~req:5 msg in
    let at = 9 + (2 * Key.size) in
    Bytes.set_int32_be f at (Int32.of_int prefix);
    Bytes.set_uint8 f (at + 4) bits;
    f
  in
  List.iter
    (fun (label, tag, prefix, bits, ok) ->
      let f = frame ~tag ~prefix ~bits in
      match (Wire.decode f ~off:0 ~len:(Bytes.length f), ok) with
      | Ok _, true | Error (Wire.Malformed _), false -> ()
      | _ -> Alcotest.failf "%s: wrong verdict" label)
    [
      ("digests at 24 bits", 16, (1 lsl 24) - 1, 24, true);
      ("digests at 25 bits", 16, 0, 25, false);
      ("digests at 30 bits", 16, 0, 30, false);
      ("keys at 28 bits", 18, (1 lsl 28) - 1, 28, true);
      ("keys at 29 bits", 18, 0, 29, false);
      ("digests prefix 2^bits", 16, 1 lsl 8, 8, false);
      ("keys prefix 2^bits", 18, 1, 0, false);
    ]

(* A version has one encoding: a stamp past [max_int], or a zero stamp
   naming a node, decodes as [Malformed]. *)
let test_version_bounds () =
  let key = Key.random (Rng.create 0x56) in
  let frame ~stamp ~node =
    (* Encode a [Fetch], then rewrite the version after its key. *)
    let f = Wire.encode ~req:6 (Wire.Fetch { key; have = Version.zero }) in
    let at = 9 + Key.size in
    Bytes.set_int64_be f at stamp;
    Bytes.set_int32_be f (at + 8) (Int32.of_int node);
    f
  in
  List.iter
    (fun (label, stamp, node, ok) ->
      let f = frame ~stamp ~node in
      match (Wire.decode f ~off:0 ~len:(Bytes.length f), ok) with
      | Ok (_, Wire.Fetch { have; _ }, _), true ->
          Alcotest.(check int) (label ^ ": stamp") (Int64.to_int stamp)
            have.Version.stamp;
          Alcotest.(check int) (label ^ ": node") node have.Version.node
      | Error (Wire.Malformed _), false -> ()
      | _ -> Alcotest.failf "%s: wrong verdict" label)
    [
      ("zero", 0L, 0, true);
      ("stamp max_int", Int64.of_int max_int, 7, true);
      ("node 2^32 - 1", 1L, 0xffff_ffff, true);
      ("stamp max_int + 1", Int64.succ (Int64.of_int max_int), 7, false);
      ("stamp top bit", Int64.min_int, 7, false);
      ("zero stamp naming a node", 0L, 7, false);
    ]

(* {1 The TCP transport}

   Real loopback sockets and wall-clock timers.  Timer deadlines are
   read from the wall clock around each [schedule] call, so a check
   bounds the transport's own deadline between [lo] and [hi]. *)

module Tu = D2_net.Transport_unix

(* Pump [eps] until [cond] holds; fails after [limit] seconds. *)
let pump ?(limit = 10.0) what eps cond =
  let stop = Unix.gettimeofday () +. limit in
  while not (cond ()) do
    if Unix.gettimeofday () > stop then Alcotest.failf "timed out: %s" what;
    List.iter (fun ep -> Tu.poll ep ~timeout:0.01) eps
  done

type timer_spec = After of int * timer_spec list  (** ms, then children *)

(* Mixed and equal delays, some scheduled from inside a firing
   callback.  One batch (timers scheduled by the same code, in a row)
   must fire in (delay, scheduling order); across batches consecutive
   fires have non-decreasing deadlines; none fires before it is due. *)

let test_tcp_timers () =
  let ep = Tu.create ~node:0 ~addr_of:(fun _ -> None) ~listen:false () in
  let timers = Hashtbl.create 16 and fired = ref [] and next = ref 0 in
  let rec schedule_batch batch specs =
    List.iter
      (fun (After (ms, children)) ->
        let id = !next in
        incr next;
        let delay = float_of_int ms /. 1000.0 in
        let lo = Unix.gettimeofday () +. delay in
        Tu.schedule ep ~delay (fun () ->
            fired := (id, Unix.gettimeofday ()) :: !fired;
            schedule_batch id children);
        let hi = Unix.gettimeofday () +. delay in
        Hashtbl.replace timers id (batch, ms, lo, hi))
      specs
  in
  schedule_batch (-1)
    ([
      After (30, []);
      After (10, [ After (0, []); After (10, []); After (0, []) ]);
      After (20, [ After (5, []); After (5, []) ]);
      After (10, []);
      After (0, [ After (20, []); After (0, []) ]);
      After (30, []);
      After (20, []);
      After (0, []);
    ]
    (* A burst of equal delays: back-to-back calls share a clock
       reading, so only scheduling order can order them. *)
    @ List.init 32 (fun _ -> After (15, [])));
  pump "every timer fired" [ ep ] (fun () -> List.length !fired = !next);
  let order = List.rev !fired in
  let ids = List.map fst order in
  Alcotest.(check (list int))
    "each fired once"
    (List.init !next Fun.id)
    (List.sort compare ids);
  List.iter
    (fun (id, at) ->
      let _, ms, lo, _ = Hashtbl.find timers id in
      if at < lo -. 1e-6 then
        Alcotest.failf "timer %d (%d ms) fired %.6f s early" id ms (lo -. at))
    order;
  let batch id = let b, _, _, _ = Hashtbl.find timers id in b in
  let delay_then_seq id = let _, ms, _, _ = Hashtbl.find timers id in (ms, id) in
  List.iter
    (fun b ->
      let members = List.filter (fun id -> batch id = b) ids in
      Alcotest.(check (list int))
        (Printf.sprintf "batch %d fires in (delay, scheduling order)" b)
        (List.sort (fun x y -> compare (delay_then_seq x) (delay_then_seq y)) members)
        members)
    (List.sort_uniq compare (List.map batch ids));
  let rec consecutive = function
    | a :: (b :: _ as rest) ->
        let _, _, lo_a, _ = Hashtbl.find timers a
        and _, _, _, hi_b = Hashtbl.find timers b in
        if lo_a > hi_b +. 1e-6 then
          Alcotest.failf "timer %d fired before %d, whose deadline is earlier" a b;
        consecutive rest
    | _ -> ()
  in
  consecutive ids;
  (* An idle poll with a long timeout wakes for the earliest timer. *)
  let due = ref false in
  Tu.schedule ep ~delay:0.05 (fun () -> due := true);
  let t0 = Unix.gettimeofday () in
  Tu.poll ep ~timeout:5.0;
  let waited = Unix.gettimeofday () -. t0 in
  if waited > 1.0 then
    Alcotest.failf "poll slept %.3f s past a timer due in 0.05 s" waited;
  pump "the 50 ms timer fired" [ ep ] (fun () -> !due);
  Tu.shutdown ep

(* A port the kernel just handed out: bind port 0, read it, close. *)
let free_port () =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  Unix.close fd;
  port

let two_node_addrs () =
  let ports = [| free_port (); free_port () |] in
  fun i ->
    if i < 0 || i > 1 then None
    else Some (Unix.ADDR_INET (Unix.inet_addr_loopback, ports.(i)))

let test_tcp_loopback () =
  let addr_of = two_node_addrs () in
  let a = Tu.create ~node:0 ~addr_of () and b = Tu.create ~node:1 ~addr_of () in
  let peers = ref [] and got = Buffer.create 1024 and closed = ref false in
  let scratch = Bytes.create 4096 in
  Tu.on_accept b (fun c ->
      peers := Tu.peer c :: !peers;
      Tu.on_readable c (fun () ->
          let continue = ref true in
          while !continue do
            let n = Tu.recv_into c scratch ~off:0 ~len:(Bytes.length scratch) in
            if n > 0 then Buffer.add_subbytes got scratch 0 n else continue := false
          done);
      Tu.on_close c (fun () -> closed := true));
  let rng = Rng.create 0x7c9 in
  let payload = Bytes.init 300_000 (fun _ -> Char.chr (Rng.int rng 256)) in
  let c =
    match Tu.connect a ~dst:1 with
    | Some c -> c
    | None -> Alcotest.fail "connect to a listening peer failed"
  in
  Alcotest.(check int) "outbound peer" 1 (Tu.peer c);
  (* Odd-sized sends, so the kernel splits them at its own boundaries. *)
  let off = ref 0 in
  while !off < Bytes.length payload do
    let len = min 7_919 (Bytes.length payload - !off) in
    Tu.send c payload ~off:!off ~len;
    off := !off + len
  done;
  pump "payload delivered" [ a; b ] (fun () ->
      Buffer.length got >= Bytes.length payload);
  Alcotest.(check (list int)) "on_accept names the dialer" [ 0 ] !peers;
  Alcotest.(check bool) "bytes arrive exact" true
    (Bytes.equal payload (Buffer.to_bytes got));
  Tu.close c;
  Alcotest.(check bool) "closed locally" false (Tu.is_open c);
  pump "peer sees the close" [ a; b ] (fun () -> !closed);
  Tu.shutdown a;
  Tu.shutdown b

(* A hello carrying another protocol version is dropped before
   [on_accept]: the listener closes the stream. *)
let test_tcp_version_mismatch () =
  let addr_of = two_node_addrs () in
  let b = Tu.create ~node:1 ~addr_of () in
  let accepted = ref 0 in
  Tu.on_accept b (fun _ -> incr accepted);
  let raw = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect raw (Option.get (addr_of 1));
  let hello = Bytes.create 9 in
  Bytes.blit_string "D2N1" 0 hello 0 4;
  Bytes.set_int32_be hello 4 0l;
  Bytes.set_uint8 hello 8 ((Wire.protocol_version + 1) land 0xff);
  ignore (Unix.write raw hello 0 9);
  Unix.set_nonblock raw;
  let eof = ref false in
  pump "listener drops the stream" [ b ] (fun () ->
      (match Unix.read raw (Bytes.create 16) 0 16 with
      | 0 -> eof := true
      | _ -> ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error _ -> eof := true);
      !eof);
  Alcotest.(check int) "no on_accept" 0 !accepted;
  Unix.close raw;
  Tu.shutdown b

let prop name f =
  QCheck.Test.make ~count:500 ~name QCheck.(small_nat) (fun seed -> f (seed + 1))

let () =
  Alcotest.run "net_wire"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest (prop "roundtrip" roundtrip_prop);
          QCheck_alcotest.to_alcotest (prop "truncation -> Short" truncation_prop);
          QCheck_alcotest.to_alcotest (prop "corruption never raises" corruption_prop);
          Alcotest.test_case "oversize/undersize length" `Quick test_oversize_length;
          Alcotest.test_case "unknown tag" `Quick test_unknown_tag;
          Alcotest.test_case "probe bounds" `Quick test_probe_bounds;
          Alcotest.test_case "version bounds" `Quick test_version_bounds;
          Alcotest.test_case "wire bytes pinned" `Quick test_wire_bytes_pinned;
          Alcotest.test_case "failed write leaves the buffer" `Quick
            test_failed_write_leaves_buffer;
        ] );
      ( "reader",
        [
          QCheck_alcotest.to_alcotest (prop "chunked reassembly" reader_chunking_prop);
          QCheck_alcotest.to_alcotest
            (prop "pipelined burst, random boundaries" reader_pipelined_burst_prop);
          Alcotest.test_case "capacity settles at creation floor" `Quick
            test_reader_capacity_floor;
        ] );
      ( "transport_unix",
        [
          Alcotest.test_case "timers in (deadline, scheduling order)" `Quick
            test_tcp_timers;
          Alcotest.test_case "loopback accept, bytes, close" `Quick
            test_tcp_loopback;
          Alcotest.test_case "hello of another version dropped" `Quick
            test_tcp_version_mismatch;
        ] );
    ]
