module Key = D2_keyspace.Key
module Slice = D2_util.Slice

type fsync_policy = Always | Batch | Never

let fsync_policy_of_string = function
  | "always" -> Some Always
  | "batch" -> Some Batch
  | "never" -> Some Never
  | _ -> None

let fsync_policy_name = function
  | Always -> "always"
  | Batch -> "batch"
  | Never -> "never"

type config = {
  segment_bytes : int;
  fsync : fsync_policy;
  cache_bytes : int;
}

let default_config =
  { segment_bytes = 64 lsl 20; fsync = Batch; cache_bytes = 0 }

type recovery = {
  r_checkpoint_blocks : int;
  r_segments : int;
  r_replayed_records : int;
  r_replayed_bytes : int;
  r_truncated_bytes : int;
  r_wall_s : float;
}

type seg_state = {
  seg : Segment.t;
  mutable live : int;  (** live record bytes (header included) *)
  mutable sealed : bool;
}

(* One victim mid-relocation.  Compaction is incremental: each step
   relocates at most a byte budget of the victim's live records, so
   the poll loop never stalls long enough to trip a peer's RPC timeout
   (a synchronous 64 MB rewrite froze the daemon for hundreds of
   milliseconds — long enough to get this node falsely suspected). *)
type compaction = {
  c_st : seg_state;  (** the victim being emptied *)
  mutable c_slot : int;  (** next index slot to examine *)
}

type t = {
  sdir : string;
  cfg : config;
  lock : Mutex.t;
  index : Log_index.t;
  segs : (int, seg_state) Hashtbl.t;
  mutable active : seg_state;
  mutable next_seq : int;  (** next sequence to assign *)
  durable : int Atomic.t;
  mutable payload_bytes : int;
  mutable n_fsyncs : int;
  mutable n_rotations : int;
  mutable n_compactions : int;
  mutable compact_check : bool;
  mutable compacting : compaction option;
  (* Background group-commit flusher (Batch policy only): the event
     loop signals [f_cv]; the thread stages the write buffer under the
     store lock, runs fdatasync with the lock released, and advances
     [durable] — so the disk settles without stalling the loop. *)
  f_mu : Mutex.t;
  f_cv : Condition.t;
  mutable f_req : bool;
  mutable f_stop : bool;
  mutable f_thread : Thread.t option;
  mutable durable_cb : unit -> unit;  (** fired after each background sync *)
  recovered : recovery option;
  mutable closed : bool;
  mutable failed : exn option;  (** the write or sync error, once one failed *)
}

let recovery t = t.recovered

let check_open t = if t.closed then invalid_arg "Segment_store: closed"

let check_writable t =
  check_open t;
  Option.iter raise t.failed

(* Push the active segment's buffer, and with [fsync] sync it.  After
   a failed write(2) or fdatasync the file's tail is unknown (a retried
   fdatasync may succeed on pages the kernel dropped), so the first
   error fails the store for good. *)
let flush_active t ~fsync =
  Option.iter raise t.failed;
  try Segment.flush t.active.seg ~fsync
  with Unix.Unix_error _ as e ->
    t.failed <- Some e;
    raise e

(* The flusher thread advances the watermark without the store lock,
   so every writer must go through a monotone compare-and-set. *)
let rec advance_durable t seq =
  let cur = Atomic.get t.durable in
  if seq > cur && not (Atomic.compare_and_set t.durable cur seq) then
    advance_durable t seq

(* One fdatasync covering every byte the active segment holds; the
   group-commit primitive everything below builds on. *)
let sync_active t =
  let before = Segment.synced t.active.seg in
  flush_active t ~fsync:true;
  if Segment.synced t.active.seg > before then t.n_fsyncs <- t.n_fsyncs + 1;
  (* Every assigned sequence lives in the active segment or an earlier
     sealed (already synced) one, so the watermark jumps to the last
     sequence handed out. *)
  advance_durable t (t.next_seq - 1)

(* Push the active segment's buffer out so the file holds every byte
   the index references.  Under [Never] this deliberately skips the
   fdatasync: that policy's contract is kernel writeback, and paying a
   multi-megabyte sync at every rotation would stall the serving loop
   for exactly the users who asked not to wait for the disk. *)
let settle_active t =
  match t.cfg.fsync with
  | Never -> flush_active t ~fsync:false
  | Always | Batch -> sync_active t

let checkpoint_locked t =
  settle_active t;
  Segment.write_checkpoint ~dir:t.sdir
    (Log_index.encode t.index ~tail_seg:(Segment.id t.active.seg)
       ~tail_off:(Segment.file_length t.active.seg))

(* A segment is worth rewriting once it is sealed and either fully
   dead or holding less than [compact_live] of its bytes live.  A
   constant, not an option: it bounds on-disk amplification at
   1/compact_live. *)
let compact_live = 0.5

let compactable st =
  st.sealed
  && (st.live = 0
     || float_of_int st.live
        < compact_live *. float_of_int (Segment.file_length st.seg))

(* Bytes in segment [sid] just died (overwrite or remove).  Flag a
   compaction check once a sealed segment crosses the threshold. *)
let note_dead t sid rlen =
  match Hashtbl.find_opt t.segs sid with
  | None -> ()
  | Some st ->
      st.live <- st.live - rlen;
      if compactable st then t.compact_check <- true

let rotate_locked t =
  settle_active t;
  t.active.sealed <- true;
  t.n_rotations <- t.n_rotations + 1;
  let nid = Segment.id t.active.seg + 1 in
  let st = { seg = Segment.create ~dir:t.sdir ~id:nid; live = 0; sealed = false } in
  Hashtbl.replace t.segs nid st;
  let old = t.active in
  t.active <- st;
  (* Checkpointing here bounds tail replay to the (empty) new segment. *)
  checkpoint_locked t;
  if compactable old then t.compact_check <- true

let maybe_rotate_locked t =
  if Segment.length t.active.seg >= t.cfg.segment_bytes then rotate_locked t

(* Every mutation ends the same way: take the next sequence, make it
   as durable as the fsync policy asks, and rotate a full segment. *)
let commit_locked t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (match t.cfg.fsync with
  | Always -> sync_active t
  | Never ->
      (* Durability is the kernel's problem; report it done. *)
      Atomic.set t.durable seq
  | Batch -> ());
  maybe_rotate_locked t;
  seq

let put t ~key ~(data : Slice.t) =
  if data.len > Record.max_data then
    invalid_arg "Segment_store.put: block exceeds max record payload";
  Mutex.protect t.lock (fun () ->
      check_writable t;
      let st = t.active in
      let off = Segment.append st.seg ~kind:Record.kind_put ~key ~data in
      let rlen = Record.encoded_len ~data_len:data.len in
      (match
         Log_index.bind t.index ~key ~seg:(Segment.id st.seg) ~off ~len:rlen
       with
      | Some (oseg, olen) ->
          note_dead t oseg olen;
          t.payload_bytes <- t.payload_bytes - (olen - Record.header_len)
      | None -> ());
      st.live <- st.live + rlen;
      t.payload_bytes <- t.payload_bytes + data.len;
      commit_locked t)

(* Unbind [key] and log its tombstone: a remove, and how compaction
   discards a record that no longer checks out. *)
let drop_locked t key =
  match Log_index.remove t.index key with
  | None -> false
  | Some (oseg, olen) ->
      note_dead t oseg olen;
      t.payload_bytes <- t.payload_bytes - (olen - Record.header_len);
      (* The tombstone itself is dead weight from birth: it exists
         only for replay, so it never counts as live. *)
      ignore
        (Segment.append t.active.seg ~kind:Record.kind_remove ~key
           ~data:(Slice.of_string ""));
      true

let remove t ~key =
  Mutex.protect t.lock (fun () ->
      check_writable t;
      if drop_locked t key then (true, commit_locked t) else (false, 0))

(* One pread of the payload into the buffer [into] supplies for its
   length; -1 when the key is absent.  The store lock spans the index
   probe and the read, so compaction cannot relocate the record or
   unlink its segment in between. *)
let read_through t ~key ~into =
  Mutex.protect t.lock (fun () ->
      check_open t;
      let s = Log_index.find t.index key in
      if s < 0 then -1
      else begin
        let st = Hashtbl.find t.segs (Log_index.seg t.index s) in
        let dlen = Log_index.len t.index s - Record.header_len in
        let buf = into dlen in
        Segment.read_into st.seg
          ~off:(Log_index.off t.index s + Record.header_len)
          ~len:dlen buf ~dst_off:0;
        dlen
      end)

let get t ~key =
  let buf = ref Bytes.empty in
  let into n =
    buf := Bytes.create n;
    !buf
  in
  if read_through t ~key ~into < 0 then None
  else Some (Bytes.unsafe_to_string !buf)

let get_into t ~key buf =
  read_through t ~key ~into:(fun n ->
      if n > Bytes.length buf then
        invalid_arg "Segment_store.get_into: buffer too small";
      buf)

let flush t =
  Mutex.protect t.lock (fun () ->
      if not t.closed then
        match t.cfg.fsync with
        | Always -> () (* every put synced inline; nothing pending *)
        | Batch -> sync_active t
        | Never -> flush_active t ~fsync:false)

let needs_flush t =
  (not t.closed) && t.failed = None
  &&
  match t.cfg.fsync with
  | Always -> false
  | Batch ->
      Atomic.get t.durable < t.next_seq - 1
      || Segment.synced t.active.seg < Segment.length t.active.seg
  | Never -> Segment.file_length t.active.seg < Segment.length t.active.seg

(* {1 Background group commit}

   One iteration = one group commit: stage everything buffered with a
   single write(2) under the store lock, capture how far that reaches
   (bytes and sequence), then fdatasync with the lock RELEASED — new
   puts keep appending while the disk settles, and they form the next
   group.  The commit rate self-clocks to the device: one fdatasync
   latency per batch, however many records arrived in the meantime. *)
let rec flusher_loop t =
  Mutex.lock t.f_mu;
  while not (t.f_req || t.f_stop) do
    Condition.wait t.f_cv t.f_mu
  done;
  t.f_req <- false;
  let stop = t.f_stop in
  Mutex.unlock t.f_mu;
  if not stop then begin
    let work =
      Mutex.protect t.lock (fun () ->
          if t.closed || t.failed <> None then None
          else
            match flush_active t ~fsync:false with
            | exception Unix.Unix_error _ -> None
            | () ->
                let seg = t.active.seg in
                let upto = Segment.file_length seg in
                let covered = t.next_seq - 1 in
                if Segment.synced seg >= upto && Atomic.get t.durable >= covered
                then None
                else Some (seg, upto, covered))
    in
    (match work with
    | None -> ()
    | Some (seg, upto, covered) ->
        let err =
          match Segment.datasync seg with
          | () -> None
          | exception (Unix.Unix_error _ as e) -> Some e
        in
        Mutex.protect t.lock (fun () ->
            (* EBADF is possible if a rotation plus a full compaction
               retired this very segment in the window; that rotation
               synced it, so the records are durable either way.  Any
               other error leaves them in doubt: no ack may follow. *)
            match err with
            | Some (Unix.Unix_error (e, _, _) as x)
              when e <> Unix.EBADF || Hashtbl.mem t.segs (Segment.id seg) ->
                t.failed <- Some x
            | _ ->
                if not t.closed then begin
                  Segment.mark_synced seg ~upto;
                  t.n_fsyncs <- t.n_fsyncs + 1;
                  advance_durable t covered
                end);
        t.durable_cb ());
    flusher_loop t
  end

(* Request (don't wait for) durability of everything appended so far.
   Batch: wake the flusher and return — acks follow the [durable_seq]
   watermark.  Never: push the buffer (write-behind, no fsync).
   Always: every put already synced inline. *)
let flush_async t =
  match t.cfg.fsync with
  | Always -> ()
  | Never -> flush t
  | Batch ->
      Mutex.lock t.f_mu;
      t.f_req <- true;
      Condition.signal t.f_cv;
      Mutex.unlock t.f_mu

let stop_flusher t =
  match t.f_thread with
  | None -> ()
  | Some th ->
      Mutex.lock t.f_mu;
      t.f_stop <- true;
      Condition.signal t.f_cv;
      Mutex.unlock t.f_mu;
      Thread.join th;
      t.f_thread <- None

let on_durable t cb = t.durable_cb <- cb
let durable_seq t = Atomic.get t.durable

let checkpoint t =
  Mutex.protect t.lock (fun () ->
      check_open t;
      checkpoint_locked t)

(* {1 Incremental compaction}

   A victim (sealed segment below the live threshold) is emptied a
   bounded slice at a time: each step walks on through the index
   slots, and each slot still bound into the victim has its record
   read by (offset, length) into the active segment and re-pointed
   there — only what the index calls live is read, and recovery stays
   the log's one scanner.  A copy that fails its check (the victim
   rotted on disk) is dropped as a remove would drop it.  A step
   relocates at most [compact_budget] bytes, so a 64 MB segment never
   stalls the serving loop long enough to trip RPC timeouts and get
   the node falsely suspected.  Once no slot points into the victim,
   the relocations are made durable, the index is checkpointed (so
   full-scan recovery can never resurrect what the victim's
   tombstones killed), and only then is the file deleted — a crash in
   between recovers from the checkpoint and re-collects the victim
   later as a fully dead segment. *)

let compact_budget = 512 lsl 10

(* Lowest-live-fraction sealed segment below the threshold (any dead
   byte qualifies under [force]) becomes the victim. *)
let pick_victim_locked t ~force =
  let best = ref None in
  Hashtbl.iter
    (fun _ st ->
      let total = Segment.file_length st.seg in
      if compactable st || (force && st.sealed && st.live < total) then
        let frac =
          if total = 0 then 0.0
          else float_of_int st.live /. float_of_int total
        in
        match !best with
        | Some (bf, _) when bf <= frac -> ()
        | _ -> best := Some (frac, st))
    t.segs;
  match !best with
  | None ->
      t.compact_check <- false;
      false
  | Some (_, st) ->
      t.compacting <- Some { c_st = st; c_slot = 0 };
      true

(* Relocate up to [budget] more bytes of the victim; returns [true]
   when it was finished (checkpointed and deleted). *)
let compact_step_locked t ~budget =
  match t.compacting with
  | None -> false
  | Some c ->
      let st = c.c_st in
      let sid = Segment.id st.seg in
      let moved = ref 0 in
      while
        st.live > 0 && !moved < budget && c.c_slot < Log_index.slots t.index
      do
        let s = c.c_slot in
        c.c_slot <- s + 1;
        if Log_index.seg t.index s = sid then begin
          let key = Log_index.key t.index s and len = Log_index.len t.index s in
          let off =
            Segment.relocate t.active.seg ~src:st.seg
              ~off:(Log_index.off t.index s) ~len ~key
          in
          if off < 0 then ignore (drop_locked t key)
          else begin
            Log_index.move t.index s ~seg:(Segment.id t.active.seg) ~off;
            t.active.live <- t.active.live + len;
            st.live <- st.live - len;
            moved := !moved + len
          end;
          maybe_rotate_locked t
        end
      done;
      if st.live > 0 && c.c_slot < Log_index.slots t.index then false
      else begin
        checkpoint_locked t;
        Hashtbl.remove t.segs sid;
        Segment.close st.seg;
        Segment.unlink ~dir:t.sdir ~id:sid;
        t.n_compactions <- t.n_compactions + 1;
        t.compacting <- None;
        true
      end

let compact t ~force =
  Mutex.protect t.lock (fun () ->
      check_writable t;
      let rec go n =
        if t.compacting = None && not (pick_victim_locked t ~force) then n
        else go (if compact_step_locked t ~budget:max_int then n + 1 else n)
      in
      go 0)

let maybe_compact t =
  if t.compacting = None && not t.compact_check then 0
  else
    Mutex.protect t.lock (fun () ->
        if t.closed || t.failed <> None then 0
        else begin
          if t.compacting = None then ignore (pick_victim_locked t ~force:false);
          if compact_step_locked t ~budget:compact_budget then 1 else 0
        end)

(* The flusher is joined BEFORE the store lock is taken: it may be
   waiting on that very lock, and it must not race the fd close. *)
let close t =
  stop_flusher t;
  Mutex.protect t.lock (fun () ->
      if not t.closed then begin
        (* A clean close makes everything durable whatever the policy
           ([Never] included — this is the one sync that mode pays).  A
           failed store keeps its last checkpoint. *)
        if t.failed = None then begin
          sync_active t;
          checkpoint_locked t
        end;
        Hashtbl.iter (fun _ st -> Segment.close st.seg) t.segs;
        t.closed <- true
      end)

let crash t =
  stop_flusher t;
  Mutex.protect t.lock (fun () ->
      if not t.closed then begin
        let empty_active =
          Segment.file_length t.active.seg = 0
          && Segment.length t.active.seg = 0
        in
        let active_id = Segment.id t.active.seg in
        Hashtbl.iter (fun _ st -> Segment.close st.seg) t.segs;
        if empty_active then Segment.unlink ~dir:t.sdir ~id:active_id;
        t.closed <- true
      end)

let count t = Mutex.protect t.lock (fun () -> Log_index.count t.index)
let stored_bytes t = Mutex.protect t.lock (fun () -> t.payload_bytes)

let file_bytes t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun _ st acc -> acc + Segment.length st.seg) t.segs 0)

let segment_count t = Mutex.protect t.lock (fun () -> Hashtbl.length t.segs)

let iter_keys t f =
  Mutex.protect t.lock (fun () ->
      check_open t;
      Log_index.iter t.index (fun ~key ~seg:_ ~off:_ ~len:_ -> f key))

let fsyncs t = t.n_fsyncs
let rotations t = t.n_rotations
let compactions t = t.n_compactions
let cache _ = D2_cache.Block_cache.bytes_cache ~capacity:0

(* {1 Startup: recovery} *)

(* Replay one segment's records from [from] into the index; returns
   (records, bytes, truncated) where [truncated] > 0 means a torn or
   corrupt tail was cut off ([last] segments only — a bad record in an
   inner segment stops that segment's replay but deletes nothing). *)
let replay_segment index st ~from ~last =
  let img = Segment.read_all st.seg in
  let n = Bytes.length img in
  let pos = ref (min from n) in
  let records = ref 0 in
  let start = !pos in
  let stop = ref false in
  while (not !stop) && !pos < n do
    match Record.decode img ~off:!pos ~avail:(n - !pos) with
    | `Bad -> stop := true
    | `Record r ->
        let sid = Segment.id st.seg in
        (if r.Record.d_kind = Record.kind_put then
           ignore
             (Log_index.bind index ~key:r.Record.d_key ~seg:sid ~off:!pos
                ~len:r.Record.d_total)
         else ignore (Log_index.remove index r.Record.d_key));
        incr records;
        pos := !pos + r.Record.d_total
  done;
  let truncated = if !stop && last then n - !pos else 0 in
  if truncated > 0 then Segment.truncate_to st.seg !pos;
  (!records, !pos - start, truncated)

(* A checkpoint is only usable when every binding is at least a record
   header long and lies inside a segment file we actually have —
   anything else (a deleted segment, an offset past the file end)
   forces the full-scan fallback. *)
let checkpoint_usable idx segs ~tail_seg ~tail_off =
  (* The log must reach the watermark the checkpoint claims to cover:
     a tail torn BELOW it (possible when checkpoints don't sync, i.e.
     the [Never] policy) would otherwise be trusted even though some
     of the records folded into the checkpoint — tombstones included —
     no longer exist.  A missing tail file with watermark 0 is the
     benign crash-right-after-rotation case (the empty active segment
     was unlinked). *)
  let tail_ok =
    match Hashtbl.find_opt segs tail_seg with
    | Some st -> tail_off <= Segment.file_length st.seg
    | None -> tail_off = 0
  in
  tail_ok
  &&
  let ok = ref true in
  Log_index.iter idx (fun ~key:_ ~seg ~off ~len ->
      match Hashtbl.find_opt segs seg with
      | Some st
        when len >= Record.header_len && off + len <= Segment.file_length st.seg
        ->
          ()
      | _ -> ok := false);
  !ok

let create ~dir ?(config = default_config) () =
  let t0 = Unix.gettimeofday () in
  let found = Segment.open_dir ~dir in
  let fresh = found = None in
  let ids = Option.value found ~default:[] in
  let segs : (int, seg_state) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun id ->
      Hashtbl.replace segs id
        { seg = Segment.open_existing ~dir ~id; live = 0; sealed = true })
    ids;
  let index, tail_seg, tail_off, ckpt_blocks =
    match
      if fresh then None
      else Option.bind (Segment.read_checkpoint ~dir) Log_index.decode
    with
    | Some (idx, ts, off) when checkpoint_usable idx segs ~tail_seg:ts ~tail_off:off ->
        (idx, ts, off, Log_index.count idx)
    | _ -> (Log_index.create (), -1, 0, 0)
  in
  let last_id = match List.rev ids with [] -> -1 | id :: _ -> id in
  let replayed = ref 0 and replayed_bytes = ref 0 and truncated = ref 0 in
  List.iter
    (fun id ->
      if id >= tail_seg then begin
        let st = Hashtbl.find segs id in
        let from = if id = tail_seg then tail_off else 0 in
        if from <= Segment.file_length st.seg then begin
          let r, b, tr = replay_segment index st ~from ~last:(id = last_id) in
          replayed := !replayed + r;
          replayed_bytes := !replayed_bytes + b;
          truncated := !truncated + tr
        end
      end)
    ids;
  (* Liveness and payload totals come from the reconstructed index, not
     from replay arithmetic — exact whichever path got us here. *)
  let payload = ref 0 in
  Log_index.iter index (fun ~key:_ ~seg ~off:_ ~len ->
      (match Hashtbl.find_opt segs seg with
      | Some st -> st.live <- st.live + len
      | None -> ());
      payload := !payload + (len - Record.header_len));
  (* Recovery never appends to a recovered file: open a fresh tail. *)
  let active_id = last_id + 1 in
  let active =
    { seg = Segment.create ~dir ~id:active_id; live = 0; sealed = false }
  in
  Hashtbl.replace segs active_id active;
  let recovered =
    if fresh then None
    else
      Some
        {
          r_checkpoint_blocks = ckpt_blocks;
          r_segments = List.length ids;
          r_replayed_records = !replayed;
          r_replayed_bytes = !replayed_bytes;
          r_truncated_bytes = !truncated;
          r_wall_s = Unix.gettimeofday () -. t0;
        }
  in
  let t =
    {
      sdir = dir;
      cfg = config;
      lock = Mutex.create ();
      index;
      segs;
      active;
      next_seq = 1;
      durable = Atomic.make 0;
      payload_bytes = !payload;
      n_fsyncs = 0;
      n_rotations = 0;
      n_compactions = 0;
      compact_check = false;
      compacting = None;
      f_mu = Mutex.create ();
      f_cv = Condition.create ();
      f_req = false;
      f_stop = false;
      f_thread = None;
      durable_cb = ignore;
      recovered;
      closed = false;
      failed = None;
    }
  in
  if config.fsync = Batch then t.f_thread <- Some (Thread.create flusher_loop t);
  (* A recovered store re-checkpoints immediately: the truncation (if
     any) and the fresh tail watermark become durable, and fully-dead
     recovered segments are flagged for collection. *)
  if not fresh then begin
    Mutex.lock t.lock;
    checkpoint_locked t;
    Hashtbl.iter
      (fun _ st -> if compactable st then t.compact_check <- true)
      t.segs;
    Mutex.unlock t.lock
  end;
  t
