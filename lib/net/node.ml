module Key = D2_keyspace.Key
module Ring = D2_dht.Ring
module Router = D2_dht.Router
module Rng = D2_util.Rng
module Version = D2_sync.Version
module Vmap = D2_sync.Vmap
module Store = D2_segstore.Store
module Digest = D2_sync.Digest
module Repair = D2_sync.Repair
module Slice = D2_util.Slice

type config = {
  replicas : int;
  probe_interval : float;
  rpc_timeout : float;
  repair_interval : float;
}

let default_config =
  {
    replicas = 3;
    probe_interval = 0.5;
    rpc_timeout = 0.25;
    repair_interval = 1.0;
  }

type repair_stats = {
  mutable repair_frames : int;
  mutable repair_bytes : int;
  mutable pushed : int;
  mutable pulled : int;
  mutable sessions : int;
}

let check_config c =
  if c.replicas < 1 then invalid_arg "Node.create: replicas must be >= 1";
  if not (c.probe_interval > 0.0) then
    invalid_arg "Node.create: probe_interval must be > 0";
  if not (c.rpc_timeout > 0.0) then
    invalid_arg "Node.create: rpc_timeout must be > 0";
  if not (c.repair_interval >= 0.0) then
    invalid_arg "Node.create: repair_interval must be >= 0"

let join_attempts = 5

(* The payload of a frame that carries none (a tombstone's push). *)
let no_bytes = Slice.of_string ""

(* How often a serving disk-backed node group-commits and releases the
   acks riding the window.  Not a [config] field: the mem path never
   uses it, and the window is a property of the store seam, not of the
   DHT protocol the config describes. *)
let flush_interval = 0.005

module Make (T : Transport.S) = struct
  module L = Linkset.Make (T)

  type t = {
    ls : L.t;
    cfg : config;
    me : int;
    my_id : Key.t;
    ring : Ring.t;
    router : Router.t;
    pending : (int * (unit -> unit)) Queue.t;
        (** acks awaiting durability, per instance: each domain queues
            only completions for its own linkset and drains only its
            own queue after a group commit.  Seqs are pushed in
            monotone order (handlers run sequentially per domain), so
            draining stops at the first still-volatile head. *)
    lock : Mutex.t;  (** guards [ring] and [router] (shared by siblings) *)
    vmap : Vmap.t;  (** per-key state, bytes included; shared by siblings *)
    repair : repair_stats;  (** anti-entropy counters, shared by siblings *)
    scratch : Bytes.t;
        (** per instance: a disk block read to be sent lands here, is
            encoded into a link's output buffer, and is overwritten by
            the next read — a served block allocates nothing *)
    mutable probe_rank : int;
    mutable repair_rank : int;
    mutable stopped : bool;
    mutable served : int;
  }

  let ring t = t.ring
  let store t = t.vmap
  let id t = t.my_id
  let requests_served t = t.served
  let vmap t = t.vmap
  let repair_stats t = t.repair

  (* Run [k] once the store has made [seq] durable.  A mem store (and
     sequence 0, "nothing was appended") is durable now, so [k] runs
     inline — the pre-seam ack path, frame-for-frame. *)
  let ack_when_durable t seq k =
    match Vmap.disk t.vmap with
    | Some st when Store.durable_seq st < seq ->
        let first = Queue.is_empty t.pending in
        Queue.push (seq, k) t.pending;
        (* For the round's first deferred op, ask for the commit now
           rather than at the end of the poll round: the fdatasync
           starts while the loop is still draining frames and its
           latency overlaps theirs.  Later ops ride the round-end flush
           — signalling each one would chop the group commit back into
           per-op syncs. *)
        if first then Store.flush_async st
    | _ -> k ()

  (* The group-commit turn: wake the store's background flusher (it
     stages one write and one fdatasync covering the whole window, off
     this thread), release every ack the watermark already covers,
     push the replies, and give compaction its chance.  Mem stores
     never need any of it. *)
  let flush_store t =
    match Vmap.disk t.vmap with
    | None -> ()
    | Some st ->
        if Store.needs_flush st then Store.flush_async st;
        let d = Store.durable_seq st in
        let drained = ref false in
        while
          (not (Queue.is_empty t.pending)) && fst (Queue.peek t.pending) <= d
        do
          let _, k = Queue.pop t.pending in
          k ();
          drained := true
        done;
        if !drained then L.flush_all t.ls;
        ignore (Store.maybe_compact st)

  (* The membership view is shared by every sibling (one per domain),
     so all ring/router access holds [t.lock]; the bracket must NOT
     enclose linkset effects — failing a pending RPC runs its callback
     synchronously, which may re-enter [suspect] and deadlock on the
     (non-reentrant) mutex. *)
  let add_member_locked t node id =
    if node <> t.me && (not (Ring.mem t.ring ~node)) && not (Ring.id_taken t.ring id)
    then begin
      Ring.add t.ring ~id ~node;
      Router.rebuild t.router
    end

  let add_member t node id =
    Mutex.protect t.lock (fun () -> add_member_locked t node id)

  (* A peer stopped answering (probe or RPC timeout, broken stream):
     drop it from the local view so lookups route around it.  Its
     blocks keep serving from the remaining successor replicas; a
     recovered peer re-enters via Join. *)
  let suspect t peer =
    if peer <> t.me then begin
      let removed =
        Mutex.protect t.lock (fun () ->
            if Ring.mem t.ring ~node:peer then begin
              Ring.remove t.ring ~node:peer;
              Router.rebuild t.router;
              true
            end
            else false)
      in
      if removed then L.drop_link t.ls peer
    end

  let members_locked t =
    List.map (fun n -> (n, Ring.id_of t.ring ~node:n)) (Ring.members t.ring)

  let members t = Mutex.protect t.lock (fun () -> members_locked t)

  (* The next [n] distinct successors of [key], this node excluded:
     the replicas a write fans out to and a quorum read consults.  No
     ring lock when there are none to name. *)
  let replica_set t key n =
    if n <= 0 then []
    else
      Mutex.protect t.lock (fun () ->
          Ring.successors t.ring key (n + 1)
          |> List.filter (fun m -> m <> t.me)
          |> List.filteri (fun i _ -> i < n))

  (* Send [msg] to each of [dsts] and hand every reply to [on_reply]; a
     peer that times out is suspected.  [k] runs once all have
     concluded, at once when [dsts] is empty. *)
  let gather t dsts msg ~on_reply k =
    match dsts with
    | [] -> k ()
    | _ ->
        let remaining = ref (List.length dsts) in
        List.iter
          (fun dst ->
            L.rpc t.ls ~dst ~timeout:t.cfg.rpc_timeout msg (fun r ->
                (match r with
                | Some r -> on_reply dst r
                | None -> suspect t dst);
                decr remaining;
                if !remaining = 0 then k ()))
          dsts

  (* The one way a peer's stamped copy enters the table: a fan-out
     [Put]/[Remove] copy, a [Push], and the [Fetch_ack] of a repair
     pull or a quorum sub-read.  A live copy without bytes is a version
     alone (the peer saw we hold that copy or a newer one) and takes
     nothing.  Returns whether the copy was installed and the store
     sequence an ack must wait for. *)
  let take_copy t ~key ~version ~deleted data =
    if deleted then Vmap.apply t.vmap ~key ~version ~data:None
    else if Option.is_some data then Vmap.apply t.vmap ~key ~version ~data
    else (false, 0)

  (* The node's one read of its own copy of [key]: version, tombstone and
     bytes, taken together (the bytes borrowed, see [scratch]).  [None]
     when the key has never been seen, or when a live entry has lost its
     bytes: there is nothing to serve or ship. *)
  let copy_of t key =
    match Vmap.read t.vmap ~key t.scratch with
    | Some ({ Vmap.version; deleted = true }, _) ->
        Some (version, true, no_bytes)
    | Some ({ Vmap.version; deleted = false }, Some data) ->
        Some (version, false, data)
    | Some (_, None) | None -> None

  (* The version of this node's copy of [key], zero when it has none:
     the [have] a [Fetch] carries, so a peer holding the same copy
     answers with its version alone. *)
  let have_of t key =
    match Vmap.find t.vmap ~key with
    | Some e -> e.Vmap.version
    | None -> Version.zero

  (* Ack the originator once the local copy is durable ([local_seq]:
     the coordinator's own copy rides the group-commit window like any
     other write) and every forward to the next [depth] distinct
     successors has concluded.  The ack carries the copy count: this
     node's copy and every replica's ack.  A replica that declined the
     copy holds it already or holds a later write, so its ack counts
     too. *)
  let fan_out t l req ~key ~depth ~local_seq ~msg ~make_ack =
    (* Two halves conclude: the local copy, and the gather. *)
    let remaining = ref 2 and copies = ref 0 in
    let finish () =
      decr remaining;
      if !remaining = 0 then L.reply l ~req (make_ack !copies)
    in
    ack_when_durable t local_seq (fun () ->
        incr copies;
        finish ());
    gather t (replica_set t key depth) msg
      ~on_reply:(fun _ -> function
        | Wire.Put_ack _ | Wire.Remove_ack _ -> incr copies | _ -> ())
      finish

  (* Put and Remove ([data = None]) share one path.  Coordinator or
     fan-out copy?  A coordinator write either fans out ([depth > 0])
     or comes unstamped from a client ([replicas = 1] clusters write at
     depth 0 with the zero version, a fan-out to no one); a fan-out
     copy always carries the coordinator's stamp.  The coordinator
     stamps exactly once, on its transport clock, so every replica of
     this write records the same version; a replica keeps the copy
     only if its version is larger than its own, so a stale or
     duplicate delivery is version-ignored, never re-applied. *)
  let serve_write t l req ~key ~depth ~version ~data =
    let is_put = Option.is_some data in
    let ack ~copies ~removed =
      if is_put then Wire.Put_ack { copies }
      else Wire.Remove_ack { copies; removed }
    in
    if depth > 0 || Version.is_zero version then begin
      let version, removed, seq =
        Vmap.write t.vmap ~key ~node:t.me ~now:(T.now (L.endpoint t.ls)) ~data
      in
      let msg =
        match data with
        | Some data -> Wire.Put { key; depth = 0; version; data }
        | None -> Wire.Remove { key; depth = 0; version }
      in
      fan_out t l req ~key ~depth ~local_seq:seq ~msg
        ~make_ack:(fun copies -> ack ~copies ~removed)
    end
    else begin
      let installed, seq =
        take_copy t ~key ~version ~deleted:(not is_put) data
      in
      ack_when_durable t seq (fun () ->
          L.reply l ~req (ack ~copies:1 ~removed:installed))
    end

  (* Answer a read from this node's own entry, then push that entry to
     each consulted replica whose [reported] version is smaller:
     read-repair, off the reply path, no ack awaited. *)
  let answer_read t l req ~key reported =
    match copy_of t key with
    | None -> L.reply l ~req Wire.Missing
    | Some (version, deleted, data) ->
        L.reply l ~req (if deleted then Wire.Missing else Wire.Found { data });
        List.iter
          (fun (dst, reported) ->
            if Version.compare reported version < 0 then
              L.rpc t.ls ~dst ~timeout:t.cfg.rpc_timeout
                (Wire.Push { key; version; deleted; data })
                ignore)
          reported

  (* A read at quorum [q] is a repair pull from the next [q-1] replica
     holders, then a local read.  Each [Fetch] carries the owner's
     version, so a replica holding the same copy (the common case)
     answers with its version alone; a newer copy is taken into the
     owner's table as it arrives, as a repair pull takes it.  Once
     every replica has concluded, the owner answers from its own
     entry, now the newest copy any of them held, and read-repair
     leaves each replica that answered on that one (version, bytes).  A
     plain [Get] is [q = 1]: one table read, no frame, no ring lock. *)
  let serve_get_q t l req ~key ~q =
    if q <= 1 then answer_read t l req ~key []
    else
      let reported = ref [] in
      gather t
        (replica_set t key (q - 1))
        (Wire.Fetch { key; have = have_of t key })
        ~on_reply:(fun dst -> function
          | Wire.Fetch_ack { version; deleted; data } ->
              ignore (take_copy t ~key ~version ~deleted data);
              reported := (dst, version) :: !reported
          | _ -> ())
        (fun () -> answer_read t l req ~key !reported)

  let handle t l req msg =
    t.served <- t.served + 1;
    match msg with
    | Wire.Lookup { key } ->
        let reply =
          Mutex.protect t.lock (fun () ->
              let route =
                if Ring.successor t.ring key = t.me then []
                else Router.route t.router ~src:t.me ~key
              in
              match route with
              | next :: _ -> Wire.Redirect { next }
              | [] ->
                  (* We own it, or the route says we do after all (a
                     stale successor read): answer with our range. *)
                  Wire.Owner
                    {
                      node = t.me;
                      lo = Ring.predecessor_id t.ring ~node:t.me;
                      hi = t.my_id;
                    })
        in
        L.reply l ~req reply
    | Wire.Get { key } -> serve_get_q t l req ~key ~q:1
    | Wire.Put { key; depth; version; data } ->
        serve_write t l req ~key ~depth ~version ~data:(Some data)
    | Wire.Remove { key; depth; version } ->
        serve_write t l req ~key ~depth ~version ~data:None
    | Wire.Join { node; id } ->
        let reply =
          Mutex.protect t.lock (fun () ->
              if
                node = t.me
                || (Ring.id_taken t.ring id && not (Ring.mem t.ring ~node))
              then Wire.Error { code = 1; message = "id taken" }
              else begin
                add_member_locked t node id;
                Wire.Join_ack { members = members_locked t }
              end)
        in
        L.reply l ~req reply
    | Wire.Probe ->
        let epoch = Mutex.protect t.lock (fun () -> Ring.epoch t.ring) in
        L.reply l ~req (Wire.Probe_ack { node = t.me; epoch })
    | Wire.Sync_digests { lo; hi; prefix; bits } ->
        let children = Vmap.children t.vmap ~lo ~hi ~prefix ~bits in
        L.reply l ~req (Wire.Sync_digests_ack { children })
    | Wire.Sync_keys { lo; hi; prefix; bits } ->
        let items = Vmap.items t.vmap ~lo ~hi ~prefix ~bits in
        L.reply l ~req (Wire.Sync_keys_ack { items })
    | Wire.Fetch { key; have } ->
        let reply =
          match Vmap.read t.vmap ~key ~have t.scratch with
          | Some (e, data) ->
              Wire.Fetch_ack
                { version = e.Vmap.version; deleted = e.Vmap.deleted; data }
          | None ->
              Wire.Fetch_ack
                { version = Version.zero; deleted = false; data = None }
        in
        L.reply l ~req reply
    | Wire.Push { key; version; deleted; data } ->
        let stored, seq = take_copy t ~key ~version ~deleted (Some data) in
        ack_when_durable t seq (fun () ->
            L.reply l ~req (Wire.Push_ack { stored }))
    | Wire.Get_q { key; q } -> serve_get_q t l req ~key ~q
    | _ ->
        (* Replies never reach the request handler ([Wire.is_request]
           dispatch); a peer sending one as a request is confused. *)
        L.reply l ~req (Wire.Error { code = 2; message = "not a request" })

  let wire t ep =
    L.set_on_request t.ls (fun l req msg -> handle t l req msg);
    L.set_on_peer_down t.ls (fun peer -> suspect t peer);
    T.on_accept ep (fun conn -> ignore (L.attach t.ls conn))

  let create ep ?(policy = Router.Fingers) ?(store = Blockstore.mem_store ())
      ~config ~id ~peers () =
    check_config config;
    let me = T.node ep in
    let ring = Ring.create () in
    Ring.add ring ~id ~node:me;
    List.iter
      (fun (n, pid) ->
        if n <> me && (not (Ring.mem ring ~node:n)) && not (Ring.id_taken ring pid)
        then Ring.add ring ~id:pid ~node:n)
      peers;
    let router =
      Router.create ~ring ~policy ~rng:(Rng.create ((me * 0x9e3779b1) lor 1))
    in
    let t =
      {
        ls = L.create ep;
        cfg = config;
        me;
        my_id = id;
        ring;
        router;
        pending = Queue.create ();
        lock = Mutex.create ();
        vmap = store;
        scratch = Bytes.create Wire.max_payload;
        repair =
          {
            repair_frames = 0;
            repair_bytes = 0;
            pushed = 0;
            pulled = 0;
            sessions = 0;
          };
        probe_rank = 0;
        repair_rank = 0;
        stopped = false;
        served = 0;
      }
    in
    wire t ep;
    t

  (* A sibling shares the node's identity and state — ring, router,
     per-key table, lock — behind its own endpoint and linkset.  One
     sibling per extra domain: the kernel spreads inbound connections
     across the domains' SO_REUSEPORT listeners, each domain drives
     only its own poll loop, and the shared data path stays consistent
     (table partitions + the membership lock).  Siblings never
     announce or probe; membership flows through whichever sibling a
     Join or a broken stream happens to reach. *)
  let sibling t ep =
    let s =
      {
        t with
        ls = L.create ep;
        pending = Queue.create ();
        scratch = Bytes.create Wire.max_payload;
        probe_rank = 0;
        repair_rank = 0;
        stopped = false;
        served = 0;
      }
    in
    wire s ep;
    s

  let announce t dst =
    let rec go attempts =
      L.rpc t.ls ~dst ~timeout:t.cfg.rpc_timeout
        (Wire.Join { node = t.me; id = t.my_id })
        (fun r ->
          match r with
          | Some (Wire.Join_ack { members }) ->
              List.iter (fun (n, nid) -> add_member t n nid) members
          | _ ->
              if attempts > 1 && not t.stopped then
                T.schedule (L.endpoint t.ls) ~delay:t.cfg.rpc_timeout (fun () ->
                    go (attempts - 1)))
    in
    go join_attempts

  let probe t dst =
    if dst <> t.me then
      L.rpc t.ls ~dst ~timeout:t.cfg.rpc_timeout Wire.Probe (fun r ->
          match r with Some _ -> () | None -> suspect t dst)

  (* {2 Anti-entropy}

     Each repair tick reconciles this node's primary range — the keys
     it owns, which its r-1 successors must replicate — with one
     successor, rotating through them across ticks.  The session walks
     the digest trie (one [Sync_digests] RPC per narrowing round, one
     [Sync_keys] per leaf), then streams the transfers: [Fetch] for
     entries the peer holds newer, [Push] for entries we hold newer.
     Because the owner drives sync for its own range, every failure
     mode funnels through the same loop: a successor that died takes
     its replicas with it, and the owner's next tick re-replicates to
     the node that ring maintenance promoted into the chain; a node
     restarted empty is refilled by its predecessors' sessions (and
     pulls its own range back from its successors). *)

  type session = {
    peer : int;
    lo : Key.t;
    hi : Key.t;
    probes : Repair.next Queue.t;
    pulls : Key.t Queue.t;
    pushes : Key.t Queue.t;
  }

  (* One repair RPC, with traffic accounting: every frame sent or
     received on the repair path is counted, so the experiment can
     price an interval setting in bytes on the wire. *)
  let repair_rpc t ~dst msg cb =
    t.repair.repair_frames <- t.repair.repair_frames + 1;
    t.repair.repair_bytes <- t.repair.repair_bytes + Wire.frame_length msg;
    L.rpc t.ls ~dst ~timeout:t.cfg.rpc_timeout msg (fun r ->
        (match r with
        | Some reply ->
            t.repair.repair_frames <- t.repair.repair_frames + 1;
            t.repair.repair_bytes <-
              t.repair.repair_bytes + Wire.frame_length reply
        | None -> ());
        cb r)

  (* Sequential session driver: one outstanding RPC, digest narrowing
     first, then pulls, then pushes.  A timeout or unexpected reply
     abandons the session — the next tick starts over. *)
  let rec session_step t s =
    if not t.stopped then
      match Queue.take_opt s.probes with
      | Some (Repair.Digest p) ->
          repair_rpc t ~dst:s.peer
            (Wire.Sync_digests
               { lo = s.lo; hi = s.hi; prefix = p.prefix; bits = p.bits })
            (function
              | Some (Wire.Sync_digests_ack { children = remote }) ->
                  let local =
                    Vmap.children t.vmap ~lo:s.lo ~hi:s.hi
                      ~prefix:p.Repair.prefix ~bits:p.Repair.bits
                  in
                  List.iter
                    (fun n -> Queue.push n s.probes)
                    (Repair.refine p ~local ~remote);
                  session_step t s
              | _ -> ())
      | Some (Repair.Keys p) ->
          repair_rpc t ~dst:s.peer
            (Wire.Sync_keys
               { lo = s.lo; hi = s.hi; prefix = p.prefix; bits = p.bits })
            (function
              | Some (Wire.Sync_keys_ack { items = remote }) ->
                  let local =
                    Vmap.items t.vmap ~lo:s.lo ~hi:s.hi
                      ~prefix:p.Repair.prefix ~bits:p.Repair.bits
                  in
                  let { Repair.pull; push } = Repair.diff ~local ~remote in
                  List.iter (fun k -> Queue.push k s.pulls) pull;
                  List.iter (fun (k, _, _) -> Queue.push k s.pushes) push;
                  session_step t s
              | _ -> ())
      | None -> (
          match Queue.take_opt s.pulls with
          | Some key ->
              (* A copy we already cover (a write since the key
                 exchange) comes back without its bytes. *)
              repair_rpc t ~dst:s.peer
                (Wire.Fetch { key; have = have_of t key })
                (function
                  | Some (Wire.Fetch_ack { version; deleted; data }) ->
                      let stored, _ =
                        take_copy t ~key ~version ~deleted data
                      in
                      if stored then t.repair.pulled <- t.repair.pulled + 1;
                      session_step t s
                  | _ -> ())
          | None -> (
              match Queue.take_opt s.pushes with
              | Some key -> (
                  (* Ship the copy held now, version and bytes read
                     together: a write since the key exchange only
                     makes it newer. *)
                  match copy_of t key with
                  | None ->
                      (* An entry without bytes (lost block): nothing to
                         ship; the peer's copy, if any, flows back on a
                         later pull. *)
                      session_step t s
                  | Some (version, deleted, data) ->
                      repair_rpc t ~dst:s.peer
                        (Wire.Push { key; version; deleted; data })
                        (function
                          | Some (Wire.Push_ack { stored }) ->
                              if stored then
                                t.repair.pushed <- t.repair.pushed + 1;
                              session_step t s
                          | _ -> ()))
              | None -> ()))

  let repair_tick t =
    let target =
      Mutex.protect t.lock (fun () ->
          let span = min (t.cfg.replicas - 1) (Ring.size t.ring - 1) in
          if span < 1 then None
          else begin
            t.repair_rank <- (t.repair_rank mod span) + 1;
            let peer =
              Ring.nth_successor_of_node t.ring ~node:t.me t.repair_rank
            in
            if peer = t.me then None
            else
              Some (peer, Ring.predecessor_id t.ring ~node:t.me, t.my_id)
          end)
    in
    match target with
    | None -> ()
    | Some (peer, lo, hi) ->
        t.repair.sessions <- t.repair.sessions + 1;
        let s =
          {
            peer;
            lo;
            hi;
            probes = Queue.create ();
            pulls = Queue.create ();
            pushes = Queue.create ();
          }
        in
        Queue.push (Repair.Digest Repair.root) s.probes;
        session_step t s

  let probe_tick t =
    (* Successor first (the replica chain depends on it), then one
       rotating member so a dead node is eventually noticed by
       everyone, not only its predecessor. *)
    let succ, other =
      Mutex.protect t.lock (fun () ->
          let succ = Ring.nth_successor_of_node t.ring ~node:t.me 1 in
          let size = Ring.size t.ring in
          let other =
            if size > 2 then begin
              t.probe_rank <- (t.probe_rank + 1) mod size;
              Ring.node_at t.ring t.probe_rank
            end
            else succ
          in
          (succ, other))
    in
    probe t succ;
    if other <> succ then probe t other

  let serve t =
    List.iter (fun (n, _) -> if n <> t.me then announce t n) (members t);
    let ep = L.endpoint t.ls in
    (* A clock that runs [f] every [period] seconds until [stop]. *)
    let every period f =
      let rec tick () =
        if not t.stopped then begin
          f t;
          T.schedule ep ~delay:period tick
        end
      in
      T.schedule ep ~delay:period tick
    in
    every t.cfg.probe_interval probe_tick;
    (* Anti-entropy clock: one repair session per interval, rotating
       across the successor set.  An interval of 0 disables repair
       (the control arm of the availability experiment, and tests that
       pin exact frame counts). *)
    if t.cfg.repair_interval > 0.0 then every t.cfg.repair_interval repair_tick;
    (* Disk-backed nodes also run the group-commit clock; callers that
       drive [T.poll] themselves may call [flush_store] more often (the
       daemon does, after every poll), this tick is the floor. *)
    if Vmap.disk t.vmap <> None then every flush_interval flush_store

  let stop t = t.stopped <- true
end
