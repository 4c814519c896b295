(* The durable segment store: CRC framing, group-commit watermarks,
   out-of-core reads, compaction, and — the heart of the suite — crash
   recovery checked against a byte-offset oracle at every possible
   torn-tail cut, plus an end-to-end crash/restart of a disk-backed
   cluster on the in-process transport. *)

module Store = D2_segstore.Store
module Record = D2_segstore.Record
module Crc32c = D2_segstore.Crc32c
module Log_index = D2_segstore.Log_index
module Cache = D2_cache.Block_cache
module Key = D2_keyspace.Key
module Rng = D2_util.Rng
module Slice = D2_util.Slice
module Engine = D2_simnet.Engine
module Topology = D2_simnet.Topology
module Mem = D2_net.Transport_mem
module Node = D2_net.Node.Make (D2_net.Transport_mem)
module Client = D2_net.Client.Make (D2_net.Transport_mem)
module Bootstrap = D2_net.Bootstrap
module Blockstore = D2_net.Blockstore
module Vmap = D2_sync.Vmap
module Vv = D2_sync.Version_vector

(* {1 Scratch directories}

   CI points [D2_TEST_STORE_DIR] at both tmpfs and a real-disk path so
   the whole suite runs against each; locally it falls back to the
   system temp dir. *)

let base_dir =
  match Sys.getenv_opt "D2_TEST_STORE_DIR" with
  | Some d when d <> "" -> d
  | _ -> Filename.get_temp_dir_name ()

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_ctr = ref 0

let with_dir name f =
  incr dir_ctr;
  let d =
    Filename.concat base_dir
      (Printf.sprintf "d2-segstore-%d-%s-%d" (Unix.getpid ()) name !dir_ctr)
  in
  rm_rf d;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let key_of i = Key.of_string (Printf.sprintf "%064d" i)
let data_of i = Printf.sprintf "payload-%d-%s" i (String.make (i mod 97) 'x')

(* The store writes slices; the cases write strings. *)
let put st ~key ~data = Store.put st ~key ~data:(Slice.of_string data)
let mem st ~key = Store.get st ~key <> None

let live_keys st =
  let keys = ref [] in
  Store.iter_keys st (fun k -> keys := Key.to_string k :: !keys);
  !keys

(* {1 CRC-32C} *)

let test_crc_kat () =
  (* The Castagnoli check value: crc32c("123456789") = 0xE3069283. *)
  Alcotest.(check int)
    "kat" 0xE3069283
    (Crc32c.string "123456789" ~pos:0 ~len:9);
  Alcotest.(check int)
    "empty" 0
    (Crc32c.string "" ~pos:0 ~len:0)

(* Byte-at-a-time oracle for the C stub: reflected CRC-32C (polynomial
   0x82F63B78), each byte shifted through eight bit steps. *)
let crc32c_oracle s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0x82F63B78 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  lnot !c land 0xFFFFFFFF

let test_crc_matches_reference () =
  let rng = Rng.create 0xc5c in
  for len = 0 to 300 do
    let b = Bytes.create len in
    Rng.bits rng b;
    let s = Bytes.to_string b in
    Alcotest.(check int)
      (Printf.sprintf "stub = reference (len %d)" len)
      (crc32c_oracle s)
      (Crc32c.string s ~pos:0 ~len)
  done

let test_crc_chaining () =
  let rng = Rng.create 0x11ab in
  let b = Bytes.create 4096 in
  Rng.bits rng b;
  let s = Bytes.to_string b in
  let whole = Crc32c.string s ~pos:0 ~len:4096 in
  List.iter
    (fun cut ->
      let c1 = Crc32c.string s ~pos:0 ~len:cut in
      let c2 = Crc32c.string ~crc:c1 s ~pos:cut ~len:(4096 - cut) in
      Alcotest.(check int) (Printf.sprintf "split at %d" cut) whole c2)
    [ 0; 1; 7; 64; 2048; 4095; 4096 ]

(* {1 Record framing} *)

let test_record_roundtrip () =
  let key = key_of 7 and data = "hello, segment" in
  let len = Record.encoded_len ~data_len:(String.length data) in
  let buf = Bytes.make (len + 8) '\xff' in
  let n =
    Record.encode_into buf ~off:3 ~kind:Record.kind_put ~key
      ~data:(Slice.of_string data)
  in
  Alcotest.(check int) "encoded length" len n;
  match Record.decode buf ~off:3 ~avail:(len + 5) with
  | `Bad -> Alcotest.fail "decode rejected a good record"
  | `Record r ->
      Alcotest.(check int) "kind" Record.kind_put r.Record.d_kind;
      Alcotest.(check bool) "key" true (Key.equal key r.Record.d_key);
      Alcotest.(check string) "payload" data
        (Bytes.sub_string buf r.Record.d_data_off r.Record.d_data_len);
      Alcotest.(check int) "total" len r.Record.d_total

let test_record_torn_and_corrupt () =
  let key = key_of 9 and data = "abcdefgh" in
  let len = Record.encoded_len ~data_len:(String.length data) in
  let buf = Bytes.create len in
  ignore
    (Record.encode_into buf ~off:0 ~kind:Record.kind_put ~key
       ~data:(Slice.of_string data));
  (* Torn: any prefix shorter than the full record is [`Bad]. *)
  List.iter
    (fun avail ->
      match Record.decode buf ~off:0 ~avail with
      | `Bad -> ()
      | `Record _ ->
          Alcotest.fail (Printf.sprintf "accepted a torn record (%d)" avail))
    [ 0; 1; Record.header_len - 1; Record.header_len; len - 1 ];
  (* Corrupt: flip one byte anywhere (length, CRC, kind, key, payload)
     and the record must be rejected. *)
  List.iter
    (fun pos ->
      let b = Bytes.copy buf in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      match Record.decode b ~off:0 ~avail:len with
      | `Bad -> ()
      | `Record _ ->
          Alcotest.fail (Printf.sprintf "accepted a corrupt byte at %d" pos))
    [ 0; 4; 8; 9; 40; len - 1 ];
  (* Removes carry no payload. *)
  let rlen = Record.encoded_len ~data_len:0 in
  let rb = Bytes.create rlen in
  ignore
    (Record.encode_into rb ~off:0 ~kind:Record.kind_remove ~key
       ~data:(Slice.of_string ""));
  match Record.decode rb ~off:0 ~avail:rlen with
  | `Record r ->
      Alcotest.(check int) "remove kind" Record.kind_remove r.Record.d_kind;
      Alcotest.(check int) "remove payload" 0 r.Record.d_data_len
  | `Bad -> Alcotest.fail "decode rejected a remove record"

(* {1 Store basics and durability watermarks} *)

let test_basic_ops () =
  with_dir "basic" (fun dir ->
      let st = Store.create ~dir () in
      Alcotest.(check (option string)) "absent" None (Store.get st ~key:(key_of 1));
      let s1 = put st ~key:(key_of 1) ~data:"one" in
      let s2 = put st ~key:(key_of 2) ~data:"two" in
      Alcotest.(check bool) "seqs monotone" true (s2 > s1 && s1 > 0);
      Alcotest.(check (option string)) "read back" (Some "one")
        (Store.get st ~key:(key_of 1));
      Alcotest.(check int) "count" 2 (Store.count st);
      ignore (put st ~key:(key_of 1) ~data:"one'");
      Alcotest.(check (option string)) "overwrite" (Some "one'")
        (Store.get st ~key:(key_of 1));
      Alcotest.(check int) "count after overwrite" 2 (Store.count st);
      let removed, rs = Store.remove st ~key:(key_of 2) in
      Alcotest.(check bool) "removed" true removed;
      Alcotest.(check bool) "remove appended" true (rs > 0);
      let removed2, rs2 = Store.remove st ~key:(key_of 2) in
      Alcotest.(check bool) "absent remove" false removed2;
      Alcotest.(check int) "absent remove appends nothing" 0 rs2;
      Alcotest.(check bool) "mem" true (mem st ~key:(key_of 1));
      Alcotest.(check bool) "not mem" false (mem st ~key:(key_of 2));
      Alcotest.(check (list string)) "live keys" [ Key.to_string (key_of 1) ]
        (live_keys st);
      Store.close st;
      (* A closed store rejects operations. *)
      (match Store.get st ~key:(key_of 1) with
      | exception _ -> ()
      | _ -> Alcotest.fail "closed store answered a get");
      (* Reopen: everything durable at close is back. *)
      let st2 = Store.create ~dir () in
      Alcotest.(check (option string)) "reopened" (Some "one'")
        (Store.get st2 ~key:(key_of 1));
      Alcotest.(check (option string)) "remove survived" None
        (Store.get st2 ~key:(key_of 2));
      Store.close st2)

let test_watermarks_batch () =
  with_dir "wm" (fun dir ->
      let config = { Store.default_config with fsync = Store.Batch } in
      let st = Store.create ~dir ~config () in
      let seq = put st ~key:(key_of 1) ~data:"v" in
      Alcotest.(check bool) "buffered, not yet durable" true
        (Store.durable_seq st < seq);
      Alcotest.(check bool) "needs flush" true (Store.needs_flush st);
      Store.flush st;
      Alcotest.(check bool) "flush covers" true (Store.durable_seq st >= seq);
      Alcotest.(check bool) "one fsync at least" true (Store.fsyncs st >= 1);
      (* The async path: the background flusher advances the watermark
         and fires the durability hook off-thread. *)
      let fired = Atomic.make false in
      Store.on_durable st (fun () -> Atomic.set fired true);
      let seq2 = put st ~key:(key_of 2) ~data:"w" in
      Store.flush_async st;
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Store.durable_seq st < seq2 && Unix.gettimeofday () < deadline do
        Thread.yield ()
      done;
      Alcotest.(check bool) "async commit landed" true
        (Store.durable_seq st >= seq2);
      Alcotest.(check bool) "durability hook fired" true (Atomic.get fired);
      Store.close st)

let test_watermarks_always_never () =
  List.iter
    (fun policy ->
      with_dir ("wm-" ^ Store.fsync_policy_name policy) (fun dir ->
          let config = { Store.default_config with fsync = policy } in
          let st = Store.create ~dir ~config () in
          let seq = put st ~key:(key_of 1) ~data:"v" in
          Alcotest.(check bool)
            (Store.fsync_policy_name policy ^ ": durable on return")
            true
            (Store.durable_seq st >= seq);
          Store.close st))
    [ Store.Always; Store.Never ]

(* {1 Out-of-core reads: rotation, pread, byte cache} *)

let test_rotation_and_pread () =
  with_dir "rotate" (fun dir ->
      (* Tiny segments, no cache: every read past the active segment is
         a positional read from a sealed file. *)
      let config =
        { Store.default_config with segment_bytes = 2048; cache_bytes = 0 }
      in
      let st = Store.create ~dir ~config () in
      let n = 100 in
      for i = 0 to n - 1 do
        ignore (put st ~key:(key_of i) ~data:(data_of i))
      done;
      Store.flush st;
      Alcotest.(check bool) "rotated" true (Store.segment_count st > 1);
      Alcotest.(check bool) "rotations counted" true (Store.rotations st > 0);
      for i = 0 to n - 1 do
        Alcotest.(check (option string))
          (Printf.sprintf "pread key %d" i)
          (Some (data_of i))
          (Store.get st ~key:(key_of i))
      done;
      Alcotest.(check int) "cache disabled: zero hits" 0
        (Cache.cache_hits (Store.cache st));
      Store.close st;
      (* And the same dataset through recovery. *)
      let st2 = Store.create ~dir ~config () in
      for i = 0 to n - 1 do
        Alcotest.(check (option string))
          (Printf.sprintf "recovered key %d" i)
          (Some (data_of i))
          (Store.get st2 ~key:(key_of i))
      done;
      Store.close st2)

let test_cache_serves_hot_reads () =
  with_dir "cache" (fun dir ->
      let st = Store.create ~dir () in
      ignore (put st ~key:(key_of 1) ~data:"hot block");
      ignore (Store.get st ~key:(key_of 1));
      let h0 = Cache.cache_hits (Store.cache st) in
      Alcotest.(check (option string)) "hit" (Some "hot block")
        (Store.get st ~key:(key_of 1));
      Alcotest.(check bool) "cache hit counted" true
        (Cache.cache_hits (Store.cache st) > h0);
      (* Remove invalidates the cached copy. *)
      ignore (Store.remove st ~key:(key_of 1));
      Alcotest.(check (option string)) "removed not served from cache" None
        (Store.get st ~key:(key_of 1));
      Store.close st)

let test_oversized_overwrite_not_stale () =
  with_dir "cache-stale" (fun dir ->
      let config = { Store.default_config with cache_bytes = 100 } in
      let st = Store.create ~dir ~config () in
      ignore (put st ~key:(key_of 1) ~data:"short");
      let big = String.make 200 'b' in
      ignore (put st ~key:(key_of 1) ~data:big);
      Alcotest.(check (option string)) "the overwrite, not the cached copy"
        (Some big) (Store.get st ~key:(key_of 1));
      Store.close st)

(* {1 Compaction} *)

let test_compaction_reclaims_and_preserves () =
  with_dir "compact" (fun dir ->
      let config =
        { Store.default_config with segment_bytes = 4096; cache_bytes = 0 }
      in
      let st = Store.create ~dir ~config () in
      let n = 50 in
      (* Three overwrite rounds strand two dead copies of every block
         across many sealed segments. *)
      for round = 0 to 2 do
        for i = 0 to n - 1 do
          ignore
            (put st ~key:(key_of i)
               ~data:(Printf.sprintf "r%d-%s" round (data_of i)))
        done
      done;
      for i = 0 to n - 1 do
        if i mod 2 = 0 then ignore (Store.remove st ~key:(key_of i))
      done;
      Store.flush st;
      let before = Store.file_bytes st in
      let reclaimed = Store.compact st ~force:true in
      Alcotest.(check bool) "segments reclaimed" true (reclaimed > 0);
      Alcotest.(check bool) "file bytes shrank" true
        (Store.file_bytes st < before);
      Alcotest.(check bool) "compactions counted" true
        (Store.compactions st >= reclaimed);
      for i = 0 to n - 1 do
        let expect = if i mod 2 = 0 then None else Some ("r2-" ^ data_of i) in
        Alcotest.(check (option string))
          (Printf.sprintf "post-compact key %d" i)
          expect
          (Store.get st ~key:(key_of i))
      done;
      Store.close st;
      (* No resurrection: removed blocks stay gone across recovery, and
         the survivors read back from their relocated offsets. *)
      let st2 = Store.create ~dir ~config () in
      for i = 0 to n - 1 do
        let expect = if i mod 2 = 0 then None else Some ("r2-" ^ data_of i) in
        Alcotest.(check (option string))
          (Printf.sprintf "reopened post-compact key %d" i)
          expect
          (Store.get st2 ~key:(key_of i))
      done;
      Store.close st2)

(* Compaction copies each record the index binds into the victim as it
   is, read by its (offset, length) ([Segment.relocate]): a relocated
   record must still frame and checksum exactly, so both recovery
   paths — the checkpoint, and a full scan of the log with the
   checkpoint gone — read back the same bytes.
   Overwrites only: a full scan cannot honour tombstones that compaction
   has already collected (that is what the checkpoint is for). *)
let test_compaction_relocates_encoded () =
  with_dir "relocate" (fun dir ->
      let config =
        { Store.default_config with segment_bytes = 16384; cache_bytes = 0 }
      in
      let st = Store.create ~dir ~config () in
      let rng = Rng.create 0x2e10 in
      let model = Hashtbl.create 32 in
      let n = 24 in
      for round = 0 to 5 do
        for _ = 1 to 40 do
          let i = Rng.int rng n in
          let data =
            String.init (Rng.int rng 6000) (fun j ->
                Char.chr (((i * 7) + (round * 13) + j) land 0xff))
          in
          ignore (put st ~key:(key_of i) ~data);
          Hashtbl.replace model i data
        done;
        ignore (Store.compact st ~force:true)
      done;
      Alcotest.(check bool) "records were relocated" true
        (Store.compactions st > 0);
      let check label st =
        Alcotest.(check int) (label ^ ": count") (Hashtbl.length model)
          (Store.count st);
        Hashtbl.iter
          (fun i data ->
            Alcotest.(check (option string))
              (Printf.sprintf "%s: key %d" label i)
              (Some data)
              (Store.get st ~key:(key_of i)))
          model
      in
      let recovered_from_checkpoint st =
        match Store.recovery st with
        | Some r -> r.Store.r_checkpoint_blocks
        | None -> Alcotest.fail "reopen saw a fresh directory"
      in
      check "compacted" st;
      Store.close st;
      let st = Store.create ~dir ~config () in
      Alcotest.(check int) "checkpoint path taken" (Hashtbl.length model)
        (recovered_from_checkpoint st);
      check "checkpoint recovery" st;
      Store.close st;
      Sys.remove (Filename.concat dir "index.ckpt");
      let st = Store.create ~dir ~config () in
      Alcotest.(check int) "full scan taken" 0 (recovered_from_checkpoint st);
      check "full-scan recovery" st;
      Store.close st)

(* {1 Disk faults} *)

(* Every record of a segment file: (key, record offset, payload offset). *)
let records_of dir id =
  let img =
    In_channel.with_open_bin
      (Filename.concat dir (Printf.sprintf "seg-%08d.log" id))
      In_channel.input_all
    |> Bytes.of_string
  in
  let rec go off acc =
    match Record.decode img ~off ~avail:(Bytes.length img - off) with
    | `Bad -> List.rev acc
    | `Record r ->
        go (off + r.Record.d_total)
          ((r.Record.d_key, off, r.Record.d_data_off) :: acc)
  in
  go 0 []

(* A payload byte that rots in a sealed segment costs its own key and
   nothing else: compaction reads each live record by its index slot,
   drops the one that fails its CRC (with a tombstone, as a remove
   would), relocates the rest, and both recovery paths agree after. *)
let test_compaction_drops_corrupt_record () =
  with_dir "corrupt" (fun dir ->
      let config =
        { Store.default_config with segment_bytes = 4096; cache_bytes = 0 }
      in
      let st = Store.create ~dir ~config () in
      let model = Hashtbl.create 64 in
      let write i data =
        ignore (put st ~key:(key_of i) ~data);
        Hashtbl.replace model (key_of i) data
      in
      for i = 0 to 59 do
        write i (data_of i)
      done;
      Store.flush st;
      (* Overwrite two keys in three of the first segment, leaving it a
         third live, then flip a payload byte of its second live record. *)
      let first = records_of dir 0 in
      List.iteri
        (fun p (k, _, _) ->
          if p mod 3 <> 0 then write (int_of_string (Key.to_string k)) "over")
        first;
      Store.flush st;
      let bad, _, data_off = List.nth first 3 in
      let fd =
        Unix.openfile (Filename.concat dir "seg-00000000.log") [ Unix.O_RDWR ] 0
      in
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd data_off Unix.SEEK_SET);
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x20));
      ignore (Unix.lseek fd data_off Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1);
      Unix.close fd;
      Hashtbl.remove model bad;
      Alcotest.(check bool) "a segment was collected" true
        (Store.compact st ~force:false > 0);
      let check label st =
        Alcotest.(check (option string)) (label ^ ": corrupt key absent") None
          (Store.get st ~key:bad);
        Hashtbl.iter
          (fun k data ->
            Alcotest.(check (option string))
              (label ^ ": key " ^ Key.to_string k)
              (Some data) (Store.get st ~key:k))
          model;
        Alcotest.(check int) (label ^ ": count") (Hashtbl.length model)
          (Store.count st);
        Alcotest.(check int) (label ^ ": stored bytes")
          (Hashtbl.fold (fun _ d acc -> acc + String.length d) model 0)
          (Store.stored_bytes st)
      in
      check "compacted" st;
      Store.crash st;
      let st = Store.create ~dir ~config () in
      (match Store.recovery st with
      | Some r when r.Store.r_checkpoint_blocks > 0 -> ()
      | _ -> Alcotest.fail "reopen did not load the checkpoint");
      check "checkpoint recovery" st;
      Store.close st;
      Sys.remove (Filename.concat dir "index.ckpt");
      let st = Store.create ~dir ~config () in
      check "full-scan recovery" st;
      Store.close st)

(* Writes vanish into /dev/null and its fsync fails (EINVAL): linked in
   as the next segment file or the checkpoint's tmp file, it fails the
   store's syncs with no hook in the store. *)
let link_dev_null path = Unix.symlink "/dev/null" path

(* A failed background fdatasync releases no acks: the watermark stays
   below the write, the store refuses further writes, and what the
   rotation made durable before it survives a reopen. *)
let test_failed_datasync_releases_no_acks () =
  with_dir "datasync" (fun dir ->
      let config =
        { Store.default_config with segment_bytes = 1024; fsync = Store.Batch }
      in
      let st = Store.create ~dir ~config () in
      link_dev_null (Filename.concat dir "seg-00000001.log");
      let n = ref 0 in
      while Store.rotations st = 0 do
        ignore (put st ~key:(key_of !n) ~data:(data_of !n));
        incr n
      done;
      let seq = put st ~key:(key_of 1000) ~data:"lost" in
      Store.flush_async st;
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Store.needs_flush st && Unix.gettimeofday () < deadline do
        Thread.yield ()
      done;
      Alcotest.(check bool) "no ack past the failed sync" true
        (Store.durable_seq st < seq);
      (match put st ~key:(key_of 1001) ~data:"refused" with
      | exception Unix.Unix_error _ -> ()
      | _ -> Alcotest.fail "a failed store accepted a write");
      Store.close st;
      let st = Store.create ~dir ~config () in
      for i = 0 to !n - 1 do
        Alcotest.(check (option string))
          (Printf.sprintf "synced key %d" i)
          (Some (data_of i))
          (Store.get st ~key:(key_of i))
      done;
      Store.close st)

(* A checkpoint whose fsync fails does not replace the previous one:
   the tmp file goes and the error reaches the caller. *)
let test_failed_checkpoint_keeps_old () =
  with_dir "ckpt-fsync" (fun dir ->
      let st = Store.create ~dir () in
      ignore (put st ~key:(key_of 1) ~data:"one");
      Store.checkpoint st;
      let ckpt = Filename.concat dir "index.ckpt" in
      let read () = In_channel.with_open_bin ckpt In_channel.input_all in
      let before = read () in
      ignore (put st ~key:(key_of 2) ~data:"two");
      link_dev_null (ckpt ^ ".tmp");
      (match Store.checkpoint st with
      | exception Unix.Unix_error _ -> ()
      | () -> Alcotest.fail "an unsynced checkpoint was reported done");
      Alcotest.(check string) "previous checkpoint kept" before (read ());
      Alcotest.(check bool) "tmp file removed" false
        (Array.mem "index.ckpt.tmp" (Sys.readdir dir));
      Store.close st;
      let st = Store.create ~dir () in
      Alcotest.(check (list (option string))) "both keys back"
        [ Some "one"; Some "two" ]
        [ Store.get st ~key:(key_of 1); Store.get st ~key:(key_of 2) ];
      Store.close st)

(* {1 Index checkpoints} *)

(* The checkpoint format as a [Buffer] encoder: magic, then u32 count,
   u32 tail segment and u48 tail offset, then per binding the key, u32
   segment, u48 offset and u32 length, all little-endian, then the
   CRC-32C of everything before it. *)
let reference_checkpoint idx ~tail_seg ~tail_off =
  let b = Buffer.create 1024 in
  let u32 v = Buffer.add_int32_le b (Int32.of_int v) in
  let u48 v =
    u32 v;
    Buffer.add_uint16_le b ((v lsr 32) land 0xffff)
  in
  Buffer.add_string b "D2SEGIDX1\n";
  u32 (Log_index.count idx);
  u32 tail_seg;
  u48 tail_off;
  Log_index.iter idx (fun ~key ~seg ~off ~len ->
      Buffer.add_string b (Key.to_string key);
      u32 seg;
      u48 off;
      u32 len);
  u32 (Crc32c.string (Buffer.contents b) ~pos:0 ~len:(Buffer.length b));
  Buffer.contents b

(* [save] encodes into a buffer the index keeps: each file must match
   the format byte for byte, a smaller second save included (no stale
   tail from the first), and load back. *)
let test_checkpoint_bytes () =
  with_dir "ckpt" (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "index" in
      let idx = Log_index.create ~capacity:16 () in
      for i = 0 to 99 do
        ignore
          (Log_index.bind idx ~key:(key_of i) ~seg:(i mod 7)
             ~off:((i * 0x1_0000_0001) land 0xffff_ffff_ffff)
             ~len:(Record.header_len + i))
      done;
      let saved ~tail_seg ~tail_off =
        Log_index.save idx ~path ~tail_seg ~tail_off;
        Alcotest.(check string) "checkpoint bytes"
          (reference_checkpoint idx ~tail_seg ~tail_off)
          (In_channel.with_open_bin path In_channel.input_all);
        match Log_index.load ~path with
        | Some (back, ts, toff) ->
            Alcotest.(check (triple int int int)) "loaded header"
              (Log_index.count idx, tail_seg, tail_off)
              (Log_index.count back, ts, toff)
        | None -> Alcotest.fail "checkpoint did not load"
      in
      saved ~tail_seg:6 ~tail_off:0x1234_5678_9a;
      for i = 0 to 59 do
        ignore (Log_index.remove idx (key_of (i * 3 mod 100)))
      done;
      saved ~tail_seg:7 ~tail_off:12)

(* {1 Recovery paths} *)

let test_recovery_checkpoint_vs_replay () =
  with_dir "recovery" (fun dir ->
      let st = Store.create ~dir () in
      for i = 0 to 49 do
        ignore (put st ~key:(key_of i) ~data:(data_of i))
      done;
      Store.close st;
      (* Clean close: the checkpoint covers everything, nothing to
         replay. *)
      let st2 = Store.create ~dir () in
      (match Store.recovery st2 with
      | None -> Alcotest.fail "no recovery stats on reopen"
      | Some r ->
          Alcotest.(check int) "checkpoint blocks" 50 r.Store.r_checkpoint_blocks;
          Alcotest.(check int) "nothing replayed" 0 r.Store.r_replayed_records;
          Alcotest.(check int) "nothing truncated" 0 r.Store.r_truncated_bytes);
      (* Ten more writes reach the log (flush) but never a checkpoint
         (crash): recovery replays exactly those past the watermark. *)
      for i = 50 to 59 do
        ignore (put st2 ~key:(key_of i) ~data:(data_of i))
      done;
      Store.flush st2;
      Store.crash st2;
      let st3 = Store.create ~dir () in
      (match Store.recovery st3 with
      | None -> Alcotest.fail "no recovery stats after crash"
      | Some r ->
          Alcotest.(check int) "tail replayed" 10 r.Store.r_replayed_records;
          Alcotest.(check bool) "replayed bytes counted" true
            (r.Store.r_replayed_bytes > 0));
      for i = 0 to 59 do
        Alcotest.(check (option string))
          (Printf.sprintf "recovered key %d" i)
          (Some (data_of i))
          (Store.get st3 ~key:(key_of i))
      done;
      Store.close st3)

let test_crash_loses_only_volatile_tail () =
  with_dir "crash" (fun dir ->
      let config = { Store.default_config with fsync = Store.Batch } in
      let st = Store.create ~dir ~config () in
      ignore (put st ~key:(key_of 1) ~data:"durable");
      Store.flush st;
      ignore (put st ~key:(key_of 2) ~data:"volatile");
      Store.crash st;
      let st2 = Store.create ~dir ~config () in
      Alcotest.(check (option string)) "flushed write survives" (Some "durable")
        (Store.get st2 ~key:(key_of 1));
      Alcotest.(check (option string)) "unflushed write lost" None
        (Store.get st2 ~key:(key_of 2));
      Store.close st2;
      (* Under [Always] the ack implies durability: nothing is lost. *)
      rm_rf dir;
      let config = { Store.default_config with fsync = Store.Always } in
      let st3 = Store.create ~dir ~config () in
      ignore (put st3 ~key:(key_of 3) ~data:"acked");
      Store.crash st3;
      let st4 = Store.create ~dir ~config () in
      Alcotest.(check (option string)) "always-policy write survives"
        (Some "acked")
        (Store.get st4 ~key:(key_of 3));
      Store.close st4)

(* {1 The torn-tail property}

   Script a run of puts/removes (with an index checkpoint dropped at a
   random point), push everything to the file with no sync, crash, then
   cut the log at an arbitrary byte offset — simulating power loss
   mid-write.  Recovery must never throw and must yield {e exactly} the
   fold of the records wholly below the cut; the byte-offset oracle is
   computed independently from the record framing arithmetic.  Cuts
   below the checkpoint's watermark force the full-scan fallback — a
   checkpoint claiming coverage the log no longer holds must not be
   trusted. *)

let torn_tail_case seed =
  with_dir "torn" (fun dir ->
      let config =
        {
          Store.segment_bytes = 1 lsl 30 (* single segment *);
          fsync = Store.Never;
          cache_bytes = 0;
        }
      in
      let st = Store.create ~dir ~config () in
      let rng = Rng.create (0x70c0 + seed) in
      let nkeys = 8 and nops = 40 in
      (* (op, end offset) for every record actually appended, in log
         order; offsets accumulate from the framing arithmetic alone. *)
      let extents = ref [] in
      let off = ref 0 in
      let record op data_len =
        let total = Record.encoded_len ~data_len in
        off := !off + total;
        extents := (op, !off) :: !extents
      in
      let do_put k =
        let len = Rng.int rng 200 in
        let data =
          String.init len (fun i -> Char.chr (((k * 31) + i) land 0xff))
        in
        ignore (put st ~key:(key_of k) ~data);
        record (`Put (k, data)) len
      in
      do_put (Rng.int rng nkeys);
      let ckpt_at = Rng.int rng nops in
      for op = 0 to nops - 1 do
        if op = ckpt_at then Store.checkpoint st;
        let k = Rng.int rng nkeys in
        if Rng.int rng 4 < 3 then do_put k
        else
          let removed, _ = Store.remove st ~key:(key_of k) in
          if removed then record (`Remove k) 0
      done;
      Store.flush st;
      let total = !off in
      Store.crash st;
      (* One segment file holds the whole log; cut it anywhere. *)
      let seg_file =
        match
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f -> String.length f > 4 && String.sub f 0 4 = "seg-")
        with
        | [ f ] -> Filename.concat dir f
        | files ->
            Alcotest.fail
              (Printf.sprintf "expected one segment, found %d"
                 (List.length files))
      in
      Alcotest.(check int) "flush pushed the whole log" total
        ((Unix.stat seg_file).Unix.st_size);
      let cut = Rng.int rng (total + 1) in
      Unix.truncate seg_file cut;
      let st2 = Store.create ~dir ~config () in
      (* Oracle: fold the records wholly below the cut, in order. *)
      let model = Hashtbl.create 16 in
      let last_boundary = ref 0 in
      List.iter
        (fun (op, e) ->
          if e <= cut then begin
            if e > !last_boundary then last_boundary := e;
            match op with
            | `Put (k, d) -> Hashtbl.replace model k d
            | `Remove k -> Hashtbl.remove model k
          end)
        (List.rev !extents);
      for k = 0 to nkeys - 1 do
        let expect = Hashtbl.find_opt model k in
        let got = Store.get st2 ~key:(key_of k) in
        if got <> expect then
          Alcotest.fail
            (Printf.sprintf
               "seed %d cut %d/%d key %d: recovered %s, oracle says %s" seed
               cut total k
               (match got with Some _ -> "present" | None -> "absent")
               (match expect with Some _ -> "present" | None -> "absent"))
      done;
      (match Store.recovery st2 with
      | None -> Alcotest.fail "no recovery stats"
      | Some r ->
          Alcotest.(check int)
            (Printf.sprintf "seed %d cut %d: torn bytes" seed cut)
            (cut - !last_boundary) r.Store.r_truncated_bytes);
      Store.close st2;
      true)

let prop_torn_tail =
  QCheck.Test.make ~count:60 ~name:"recovery = durable prefix at any cut"
    QCheck.small_nat torn_tail_case

(* The narrow window the property rarely lands in, pinned: the log is
   cut {e below} a checkpoint's watermark while every live binding the
   checkpoint holds sits below the cut — only a trailing tombstone is
   torn off.  A recovery that trusts the watermark blindly would load
   the checkpoint, skip replay (nothing past a watermark the file no
   longer reaches), and silently lose the put whose tombstone died:
   the checkpoint must be rejected for the full-scan fallback. *)
let test_checkpoint_past_torn_tail () =
  with_dir "ckpt-torn" (fun dir ->
      let config =
        { Store.segment_bytes = 1 lsl 30; fsync = Store.Never; cache_bytes = 0 }
      in
      let st = Store.create ~dir ~config () in
      ignore (put st ~key:(key_of 0) ~data:"alpha");
      ignore (put st ~key:(key_of 1) ~data:"bravo");
      let cut =
        Record.encoded_len ~data_len:5 + Record.encoded_len ~data_len:5
      in
      ignore (Store.remove st ~key:(key_of 1));
      Store.checkpoint st (* watermark = end of the tombstone *);
      Store.crash st;
      let seg_file =
        Sys.readdir dir |> Array.to_list
        |> List.find (fun f ->
               String.length f > 4 && String.sub f 0 4 = "seg-")
        |> Filename.concat dir
      in
      Unix.truncate seg_file cut (* the tombstone is torn off *);
      let st2 = Store.create ~dir ~config () in
      Alcotest.(check (option string)) "untouched block" (Some "alpha")
        (Store.get st2 ~key:(key_of 0));
      Alcotest.(check (option string))
        "put whose tombstone was torn off is back" (Some "bravo")
        (Store.get st2 ~key:(key_of 1));
      Store.close st2)

(* {1 End-to-end: disk-backed cluster, kill -9, restart, serve}

   The full runtime on the in-process transport: three nodes backed by
   real segment stores accept replicated writes, die without any
   shutdown path, and a restarted cluster recovering from the same
   directories serves every acked block.  [Always] keeps durability
   synchronous — the background flusher runs on wall-clock time, which
   a virtual-time engine cannot wait on. *)

let test_e2e_crash_restart () =
  with_dir "e2e" (fun root ->
      let dirs = List.init 3 (fun i -> Filename.concat root (string_of_int i)) in
      let sconfig = { Store.default_config with fsync = Store.Always } in
      let nconfig =
        {
          D2_net.Node.replicas = 3;
          probe_interval = 0.5;
          rpc_timeout = 2.0;
          repair_interval = 0.0;
        }
      in
      let open_stores () =
        List.map (fun d -> Store.create ~dir:d ~config:sconfig ()) dirs
      in
      let run_cluster stores f =
        let engine = Engine.create () in
        let topology = Topology.create ~rng:(Rng.create 0x31) ~n:4 () in
        let net = Mem.create_net ~engine ~topology ~loss:0.0 ~seed:0x5 () in
        let peers = Bootstrap.peers 3 in
        let nodes =
          List.map2
            (fun (i, id) st ->
              Node.create (Mem.endpoint net ~node:i)
                ~store:(Blockstore.disk st) ~config:nconfig ~id ~peers ())
            peers stores
        in
        List.iter Node.serve nodes;
        Engine.run engine ~until:2.0;
        let client =
          Client.create (Mem.endpoint net ~node:3) ~replicas:3 ~rpc_timeout:2.0
            ~seeds:[ 0; 1; 2 ] ()
        in
        let r = f nodes client in
        List.iter Node.stop nodes;
        r
      in
      let krng = Rng.create 0xd15c in
      let keys = Array.init 20 (fun _ -> Key.random krng) in
      let data_of key = "blk:" ^ Key.to_string key in
      (* Generation 1: load the cluster, then kill every node cold. *)
      let stores = open_stores () in
      run_cluster stores (fun _ client ->
          Array.iter
            (fun key ->
              match Client.put client ~key ~data:(data_of key) with
              | `Ok copies -> Alcotest.(check int) "put copies" 3 copies
              | `Failed -> Alcotest.fail "put failed on a healthy cluster")
            keys;
          (match Client.remove client ~key:keys.(0) with
          | `Ok removed -> Alcotest.(check bool) "removed" true removed
          | `Failed -> Alcotest.fail "remove failed"));
      List.iter Store.crash stores;
      (* Generation 2: recover from the same directories and serve. *)
      let stores = open_stores () in
      List.iter
        (fun st ->
          match Store.recovery st with
          | None -> Alcotest.fail "restart saw a fresh directory"
          | Some r ->
              Alcotest.(check bool) "store repopulated" true
                (r.Store.r_checkpoint_blocks + r.Store.r_replayed_records > 0))
        stores;
      (* 3-way replication on 3 nodes: every store holds every live
         block even before the network comes back. *)
      List.iter
        (fun st ->
          Alcotest.(check int) "recovered block count" 19 (Store.count st))
        stores;
      run_cluster stores (fun nodes client ->
          (* Boot seeding, before any client traffic (repair is off):
             every recovered block is a live entry under the empty
             vector, and nothing else is in the table. *)
          List.iter2
            (fun n st ->
              Alcotest.(check int) "seeded entries = recovered blocks"
                (Store.count st)
                (Vmap.count (Node.vmap n));
              Array.iteri
                (fun i key ->
                  if i > 0 then
                    match Vmap.read (Node.vmap n) ~key (Bytes.create 8192) with
                    | Some ({ Vmap.vv; deleted = false }, Some _)
                      when Vv.is_empty vv ->
                        ()
                    | _ ->
                        Alcotest.fail
                          "recovered block not seeded live under the empty \
                           vector")
                keys)
            nodes stores;
          Array.iteri
            (fun i key ->
              match Client.get client ~key with
              | `Found d ->
                  if i = 0 then Alcotest.fail "removed block resurrected"
                  else Alcotest.(check string) "post-restart get" (data_of key) d
              | `Missing ->
                  if i <> 0 then Alcotest.fail "acked block lost by kill -9"
              | `Failed -> Alcotest.fail "get failed after restart")
            keys;
          Alcotest.(check int) "no client failures" 0 (Client.failures client));
      List.iter Store.close stores)

(* {1 Borrowed payloads}

   A decoded payload is a window of a link's receive buffer, valid
   only until the dispatch callback returns, and a disk node reads a
   block it serves into one scratch buffer per sibling.  Keeping
   either past its callback corrupts some later reply, so this run
   interleaves every path a block travels — puts and their fan-out,
   plain gets, quorum-2 reads (version-only answers, a newer remote
   copy, read-repair pushes) and anti-entropy pulls — over nodes on
   both backends, each with a sibling serving the client connections,
   and checks every read byte for byte.  Payloads differ per key and
   version, so a stale window never passes for the right bytes. *)

module Ring = D2_dht.Ring

let test_borrowed_payloads () =
  with_dir "borrowed" (fun root ->
      let n = 4 in
      let engine = Engine.create () in
      let topology = Topology.create ~rng:(Rng.create 0x5c1) ~n:(n + 2) () in
      let net = Mem.create_net ~engine ~topology ~loss:0.0 ~seed:0x7 () in
      let peers = Bootstrap.peers n in
      (* Nodes 0 and 1 on disk, with a block cache too small to hold the
         working set (reads mix arena hits and preads); 2 and 3 in RAM. *)
      let stores =
        List.init 2 (fun i ->
            Store.create
              ~dir:(Filename.concat root (string_of_int i))
              ~config:
                {
                  Store.default_config with
                  fsync = Store.Never;
                  cache_bytes = 24 * 1024;
                }
              ())
      in
      let config =
        {
          D2_net.Node.replicas = 3;
          probe_interval = 0.5;
          rpc_timeout = 2.0;
          repair_interval = 0.5;
        }
      in
      let eps = List.map (fun (i, _) -> Mem.endpoint net ~node:i) peers in
      let nodes =
        List.map2
          (fun (i, id) ep ->
            let store =
              if i < 2 then Blockstore.disk (List.nth stores i)
              else Blockstore.mem_store ()
            in
            Node.create ep ~store ~config ~id ~peers ())
          peers eps
        |> Array.of_list
      in
      Array.iter Node.serve nodes;
      Engine.run engine ~until:2.0;
      (* Transport_mem binds one endpoint per node, so each sibling
         shares its node's: connections accepted from now on are the
         sibling's to serve (the clients', and the quorum reads' and
         fan-outs' the siblings open), while the boot-time links and
         the repair sessions stay with the first instance. *)
      List.iteri (fun i ep -> ignore (Node.sibling nodes.(i) ep)) eps;
      let client q slot =
        Client.create (Mem.endpoint net ~node:slot) ~replicas:3 ~quorum_r:q
          ~quorum_w:2 ~rpc_timeout:2.0 ~seeds:(List.init n Fun.id) ()
      in
      let c1 = client 1 n and c2 = client 2 (n + 1) in
      let ring = Ring.create () in
      List.iter (fun (i, id) -> Ring.add ring ~id ~node:i) peers;
      let krng = Rng.create 0xb0b in
      let keys = Array.init 48 (fun _ -> Key.random krng) in
      let version = Array.make (Array.length keys) 0 in
      let payload k v =
        let len = (((k * 2654435761) + (v * 40503)) land 0x1fff) + (k land 1) in
        String.init len (fun j -> Char.chr ((k + (v * 31) + (j * 7)) land 0xff))
      in
      let expect k = payload k version.(k) in
      (* One batch of async ops on distinct keys, then drain.  Frames
         leave in pairs: a node dispatches several requests per
         delivery (reusing its scratch within one dispatch), and the
         deliveries of one batch land back to back at one virtual
         instant, so the next one rewrites a link's receive buffer
         before any timer or later delivery could read a kept window. *)
      let batch ops =
        List.iteri
          (fun i op ->
            op ();
            if i land 1 = 1 then begin
              Client.poll c1 ~timeout:0.0;
              Client.poll c2 ~timeout:0.0
            end)
          ops;
        while Client.in_flight c1 + Client.in_flight c2 > 0 do
          Client.poll c1 ~timeout:0.005;
          Client.poll c2 ~timeout:0.005
        done
      in
      let put k =
        version.(k) <- version.(k) + 1;
        let data = expect k in
        fun () ->
          Client.put_async c1 ~key:keys.(k) ~data (function
            | `Ok _ -> ()
            | `Failed -> Alcotest.failf "put %d failed" k)
      in
      let get c label k =
        let want = expect k in
        fun () ->
          Client.get_async c ~key:keys.(k) (function
            | `Found d ->
                if not (String.equal d want) then
                  Alcotest.failf "%s of key %d: wrong bytes (%d B, want %d B)"
                    label k (String.length d) (String.length want)
            | `Missing | `Failed -> Alcotest.failf "%s of key %d lost" label k)
      in
      (* Every replica holds the last bytes of every key. *)
      let check_replicas label =
        Array.iteri
          (fun k key ->
            List.iter
              (fun i ->
                Alcotest.(check (option string))
                  (Printf.sprintf "%s: replica %d of key %d" label i k)
                  (Some (expect k))
                  (Blockstore.get (Node.store nodes.(i)) ~key))
              (Ring.successors ring key 3))
          keys
      in
      let all = List.init (Array.length keys) Fun.id in
      batch (List.map put all);
      let rng = Rng.create 0x1ab in
      for _ = 1 to 30 do
        let ks = List.filter (fun _ -> Rng.int rng 3 > 0) all in
        batch
          (List.map
             (fun k ->
               match Rng.int rng 3 with
               | 0 -> put k
               | 1 -> get c1 "get" k
               | _ -> get c2 "quorum read" k)
             ks)
      done;
      check_replicas "fanned out";
      (* A newer copy on the owner's first successor only, as a lost
         fan-out would leave it: stamped there, so it dominates. *)
      let diverge k =
        let owner_succ = List.nth (Ring.successors ring keys.(k) 2) 1 in
        version.(k) <- version.(k) + 1;
        ignore
          (Vmap.write (Node.vmap nodes.(owner_succ)) ~key:keys.(k)
             ~node:owner_succ ~incoming:Vv.empty
             ~data:(Some (Slice.of_string (expect k))))
      in
      (* Quorum reads find the newer remote copy, answer with it and
         push it back (read-repair); then plain gets at the owner see
         the repaired copy. *)
      let evens = List.filter (fun k -> k mod 2 = 0) all in
      List.iter diverge evens;
      batch (List.map (get c2 "diverged quorum read") evens);
      batch (List.map (get c1 "read-repaired get") evens);
      (* Anti-entropy: each owner pulls the newer copy, then pushes it
         on to its other successor. *)
      let odds = List.filter (fun k -> k mod 2 = 1) all in
      List.iter diverge odds;
      let pulled () =
        Array.fold_left
          (fun acc nd -> acc + (Node.repair_stats nd).D2_net.Node.pulled)
          0 nodes
      in
      let before = pulled () in
      Engine.run engine ~until:(Engine.now engine +. 8.0);
      Alcotest.(check bool) "repair pulled every newer copy" true
        (pulled () - before >= List.length odds);
      batch (List.map (get c1 "repair-pulled get") odds);
      batch (List.map (get c2 "final quorum read") all);
      check_replicas "converged";
      Array.iter Node.stop nodes;
      List.iter Store.close stores)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "segstore"
    [
      ( "crc32c",
        [
          Alcotest.test_case "known answer" `Quick test_crc_kat;
          Alcotest.test_case "stub matches reference" `Quick
            test_crc_matches_reference;
          Alcotest.test_case "chaining" `Quick test_crc_chaining;
        ] );
      ( "record",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "torn and corrupt rejected" `Quick
            test_record_torn_and_corrupt;
        ] );
      ( "store",
        [
          Alcotest.test_case "basic ops + reopen" `Quick test_basic_ops;
          Alcotest.test_case "group-commit watermarks (batch)" `Quick
            test_watermarks_batch;
          Alcotest.test_case "always/never durable inline" `Quick
            test_watermarks_always_never;
          Alcotest.test_case "rotation + pread, cache off" `Quick
            test_rotation_and_pread;
          Alcotest.test_case "byte cache serves hot reads" `Quick
            test_cache_serves_hot_reads;
          Alcotest.test_case "oversized overwrite is not served stale" `Quick
            test_oversized_overwrite_not_stale;
          Alcotest.test_case "compaction reclaims, preserves, no resurrection"
            `Quick test_compaction_reclaims_and_preserves;
          Alcotest.test_case "compaction relocates encoded records" `Quick
            test_compaction_relocates_encoded;
        ] );
      ( "faults",
        [
          Alcotest.test_case "compaction drops a corrupt record, keeps the rest"
            `Quick test_compaction_drops_corrupt_record;
          Alcotest.test_case "failed fdatasync releases no acks" `Quick
            test_failed_datasync_releases_no_acks;
          Alcotest.test_case "failed checkpoint fsync keeps the old one" `Quick
            test_failed_checkpoint_keeps_old;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "checkpoint bytes match the format" `Quick
            test_checkpoint_bytes;
          Alcotest.test_case "checkpoint vs tail replay" `Quick
            test_recovery_checkpoint_vs_replay;
          Alcotest.test_case "crash loses only the volatile tail" `Quick
            test_crash_loses_only_volatile_tail;
          Alcotest.test_case "checkpoint past a torn tail is rejected" `Quick
            test_checkpoint_past_torn_tail;
        ]
        @ qcheck [ prop_torn_tail ] );
      ( "e2e",
        [
          Alcotest.test_case "disk cluster: kill -9, restart, serve" `Quick
            test_e2e_crash_restart;
          Alcotest.test_case "borrowed payloads: siblings, disk + mem" `Quick
            test_borrowed_payloads;
        ] );
    ]
