module Key = D2_keyspace.Key
module Lookup_cache = D2_cache.Lookup_cache

(* Redirects an iterative lookup chain follows before giving up. *)
let max_hops = 32

(* Longest single poll while a synchronous operation waits. *)
let quantum = 0.01

module Make (T : Transport.S) = struct
  module L = Linkset.Make (T)

  type t = {
    ls : L.t;
    cache : Lookup_cache.t;
    seeds : int array;
    mutable seed_idx : int;
    replicas : int;
    quorum_r : int;
    quorum_w : int;
    rpc_timeout : float;
    retries : int;
    alpha : int;
    mutable lookup_rpcs : int;
    mutable failures : int;
    mutable inflight : int;
  }

  let create ep ?(replicas = 3) ?(quorum_r = 1) ?(quorum_w = 1)
      ?(rpc_timeout = 0.25) ?(retries = 3) ?(alpha = 1) ~seeds () =
    if seeds = [] then invalid_arg "Client.create: seeds must be non-empty";
    if alpha < 1 then invalid_arg "Client.create: alpha must be >= 1";
    if quorum_r < 1 || quorum_r > replicas then
      invalid_arg "Client.create: quorum_r outside 1..replicas";
    if quorum_w < 1 || quorum_w > replicas then
      invalid_arg "Client.create: quorum_w outside 1..replicas";
    {
      ls = L.create ep;
      cache = Lookup_cache.create ();
      seeds = Array.of_list seeds;
      seed_idx = 0;
      replicas;
      quorum_r;
      quorum_w;
      rpc_timeout;
      retries;
      alpha;
      lookup_rpcs = 0;
      failures = 0;
      inflight = 0;
    }

  let cache t = t.cache
  let lookup_rpcs t = t.lookup_rpcs
  let failures t = t.failures
  let in_flight t = t.inflight
  let poll t ~timeout = L.poll t.ls ~timeout

  (* Every RPC is deferred: the frame coalesces into the link buffer
     and leaves at the next flush point (end of the dispatch that
     produced it, or the next {!poll}).  Its reply — or its timeout —
     fires the continuation from a later poll. *)
  let arpc t dst msg k =
    L.rpc ~defer:true t.ls ~dst ~timeout:t.rpc_timeout msg k

  (* {2 Lookups: α-way racing chains}

     A cache miss races [alpha] independent iterative redirect-chains,
     each entered through a distinct seed.  The first chain to reach an
     owner settles the lookup and populates the cache with the owner's
     range, exactly as §5 describes; the losers are cancelled — a
     settled chain never issues another message (its in-flight RPC
     merely drains).  Nothing changes on the wire: each chain is a
     plain iterative lookup, so servers (and pinned replay bytes) are
     untouched.  At [alpha = 1] a wave is a single chain and a failed
     chain moves on to the next seed — the sequential lookup.  At
     [alpha >= 2] the win is tail latency: a chain stuck on a dead or
     slow hop no longer serializes the lookup behind its RPC timeout,
     because a sibling chain routed around it is usually already
     done. *)

  let rec race_iterate t key cur hops_left settled k =
    t.lookup_rpcs <- t.lookup_rpcs + 1;
    arpc t cur (Wire.Lookup { key }) (fun r ->
        if !settled then k None
        else
          match r with
          | Some (Wire.Owner { node; lo; hi }) ->
              Lookup_cache.insert t.cache ~now:(T.now (L.endpoint t.ls)) ~lo
                ~hi ~node;
              k (Some node)
          | Some (Wire.Redirect { next }) when hops_left > 0 ->
              race_iterate t key next (hops_left - 1) settled k
          | _ ->
              L.drop_link t.ls cur;
              k None)

  (* Race chains through the seeds in waves of [alpha], starting at a
     round-robin offset; a wave whose every chain fails falls through
     to the next [alpha] seeds until the seeds are exhausted. *)
  let aresolve_race t key k =
    let ns = Array.length t.seeds in
    let alpha = min t.alpha ns in
    let start = t.seed_idx in
    t.seed_idx <- (t.seed_idx + alpha) mod ns;
    let settled = ref false in
    let rec wave base =
      if base >= ns then k None
      else begin
        let live = min alpha (ns - base) in
        let pending = ref live in
        for j = 0 to live - 1 do
          race_iterate t key
            t.seeds.((start + base + j) mod ns)
            max_hops settled (fun r ->
              if not !settled then
                match r with
                | Some node ->
                    settled := true;
                    k (Some (node, false))
                | None ->
                    decr pending;
                    if !pending = 0 then wave (base + live))
        done
      end
    in
    wave 0

  (* Owner of [key]: the cached range when one covers it, else a
     racing lookup.  The bool says whether the answer came from the
     cache (a [Missing] under a cached range is then retried with a
     fresh lookup — the range may be stale). *)
  let aresolve t key k =
    let now = T.now (L.endpoint t.ls) in
    match Lookup_cache.find t.cache ~now key with
    | node when node >= 0 -> k (Some (node, true))
    | _ -> aresolve_race t key k

  (* Run one operation against the key's owner with resolve-retry on
     failure: a timeout invalidates the covering cache range and
     resolves afresh through another seed; [`Stale outcome] is
     authoritative only when the owner came from a fresh lookup (a
     cached range may point at yesterday's owner). *)
  let awith_owner t key ~f ~k =
    t.inflight <- t.inflight + 1;
    let finish outcome =
      t.inflight <- t.inflight - 1;
      k outcome
    in
    let fail () =
      t.failures <- t.failures + 1;
      finish `Failed
    in
    let rec go attempts =
      if attempts <= 0 then fail ()
      else
        aresolve t key (function
          | None -> fail ()
          | Some (owner, from_cache) ->
              f owner (fun verdict ->
                  match verdict with
                  | `Done outcome -> finish outcome
                  | `Stale outcome ->
                      if from_cache then begin
                        ignore (Lookup_cache.invalidate t.cache key);
                        go (attempts - 1)
                      end
                      else finish outcome
                  | `Retry ->
                      ignore (Lookup_cache.invalidate t.cache key);
                      L.drop_link t.ls owner;
                      go (attempts - 1)))
    in
    go t.retries

  (* A write is good once [quorum_w] replicas acked it; fewer acks
     (slow or dead replicas inside the coordinator's fan-out window)
     re-resolves and retries — the version map makes the replay
     idempotent on replicas that did take the first attempt. *)
  let put_async t ~key ~data k =
    if String.length data > Wire.max_payload then
      invalid_arg "Client.put: data exceeds Wire.max_payload";
    awith_owner t key ~k ~f:(fun owner k' ->
        arpc t owner
          (Wire.Put
             {
               key;
               depth = t.replicas - 1;
               vv = Wire.vv_empty;
               data = D2_util.Slice.of_string data;
             })
          (fun r ->
            k'
              (match r with
              | Some (Wire.Put_ack { copies; _ }) when copies >= t.quorum_w ->
                  `Done (`Ok copies)
              | Some _ | None -> `Retry)))

  let get_async t ~key k =
    awith_owner t key ~k ~f:(fun owner k' ->
        let msg =
          if t.quorum_r >= 2 then Wire.Get_q { key; q = t.quorum_r }
          else Wire.Get { key }
        in
        arpc t owner msg (fun r ->
            k'
              (match r with
              | Some (Wire.Found { data }) ->
                  (* The payload borrows the link's receive buffer:
                     the caller gets its own copy. *)
                  `Done (`Found (D2_util.Slice.to_string data))
              | Some Wire.Missing -> `Stale `Missing
              | Some _ | None -> `Retry)))

  let remove_async t ~key k =
    awith_owner t key ~k ~f:(fun owner k' ->
        arpc t owner
          (Wire.Remove { key; depth = t.replicas - 1; vv = Wire.vv_empty })
          (fun r ->
            k'
              (match r with
              | Some (Wire.Remove_ack { removed }) -> `Done (`Ok removed)
              | Some _ | None -> `Retry)))

  (* Synchronous operations: issue the async op, then poll until its
     continuation fires.  This terminates because every RPC concludes
     by reply, link death or its [Linkset] timer, and the ladder is
     bounded by [retries] and the seed count. *)
  let await t issue =
    let result = ref None in
    issue (fun r -> result := Some r);
    let rec wait () =
      match !result with
      | Some r -> r
      | None ->
          L.poll t.ls ~timeout:quantum;
          wait ()
    in
    wait ()

  let put t ~key ~data = await t (put_async t ~key ~data)
  let get t ~key = await t (get_async t ~key)
  let remove t ~key = await t (remove_async t ~key)
end
