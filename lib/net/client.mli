(** Client library: the §5 lookup cache on the request path.

    Every operation first resolves the key's owner — from the range
    cache when a cached, unexpired range covers the key, otherwise by
    an iterative lookup (ask a seed node, follow [Redirect]s, cache
    the final [(range, owner)]) — then speaks directly to the owner.
    A dead or wrong owner (RPC timeout, [Missing] under a cached
    range) invalidates the covering cache entry and the operation
    retries through the next seed, so reads keep serving across node
    failures as long as a replica survives.

    With D2's locality-preserving keys, consecutive keys of a task
    fall into the range just cached and the iterative lookup is
    skipped almost always — the live-cluster counterpart of the
    paper's up-to-95% lookup elimination. *)

module Key = D2_keyspace.Key
module Lookup_cache = D2_cache.Lookup_cache

module Make (T : Transport.S) : sig
  type t

  val create :
    T.t ->
    ?replicas:int ->
    ?quorum_r:int ->
    ?quorum_w:int ->
    ?rpc_timeout:float ->
    ?retries:int ->
    ?alpha:int ->
    seeds:int list ->
    unit ->
    t
  (** [seeds] are nodes to start iterative lookups from (rotated
      round-robin; must be non-empty).  [replicas] (default 3) is the
      fan-out depth requested on puts.  The lookup cache keeps
      {!Lookup_cache.create}'s TTL (4500 s — virtual seconds under
      {!Transport_mem}); a lookup chain follows at most 32 redirects.

      [quorum_w] (default 1) is the write quorum: a put or remove
      whose ack reports fewer than [quorum_w] stored copies is treated
      as a failure and retried through the ladder (replays are
      idempotent — replicas ignore a copy whose version is not larger
      than theirs).
      [quorum_r] (default 1) is the read quorum: at 1, gets are the
      plain owner read; at 2+ they become [Get_q] — the owner consults
      [quorum_r] replicas, answers with the newest copy,
      and read-repairs stale replicas inline — so a read survives an
      owner that crashed and restarted empty before repair caught up.
      @raise Invalid_argument if either quorum is outside
      [1..replicas].

      [alpha] (default 1) is the lookup width: a cache miss races
      [alpha] independent iterative redirect-chains, each entered
      through a distinct seed; the first owner answer wins and the
      losing chains are cancelled (a settled chain issues no further
      messages).  A wave whose every chain fails moves on to the next
      [alpha] seeds.  [alpha = 1] is the single-chain wave — the plain
      sequential lookup, one seed after another.  Nothing changes on
      the wire — each chain is an ordinary iterative lookup.  The point
      of [alpha >= 2] is p99 under churn: a chain stalled on a dead
      hop's RPC timeout no longer serializes the lookup.  Costs up to
      [alpha]× the lookup messages on misses.
      @raise Invalid_argument if [alpha < 1]. *)

  (** {2 Synchronous operations}

      Each issues the matching [_async] operation and then polls (in
      steps of at most 10 ms) until its continuation fires, so the
      sync and pipelined paths share one lookup and one retry ladder.
      The call returns once the operation concludes (reply, retry
      ladder exhausted, or timeout).  The polls also deliver replies to
      any asynchronous operations already in flight on this client, so
      their continuations may run during a synchronous call. *)

  val put : t -> key:Key.t -> data:string -> [ `Ok of int | `Failed ]
  (** [`Ok copies]: the coordinator stored the block and [copies]
      replicas (itself included) acked.
      @raise Invalid_argument if [data] exceeds {!Wire.max_payload}. *)

  val get : t -> key:Key.t -> [ `Found of string | `Missing | `Failed ]
  val remove : t -> key:Key.t -> [ `Ok of bool | `Failed ]
  (** [`Ok removed]: at least [quorum_w] replicas hold the tombstone;
      [removed] says whether it dropped a live block, on any attempt
      of the retry ladder. *)

  (** {2 Pipelined operations}

      The [_async] variants queue the request and return immediately;
      the continuation fires from a later {!poll} once the operation
      concludes (reply, retry ladder exhausted, or timeout).  Requests
      to one owner share a single connection, correlated by request
      id, and frames queued between two polls coalesce into one
      transport write — keep a window of W operations open and the
      whole window rides one send.  Continuations run exactly once. *)

  val put_async :
    t -> key:Key.t -> data:string -> ([ `Ok of int | `Failed ] -> unit) -> unit
  (** @raise Invalid_argument if [data] exceeds {!Wire.max_payload}. *)

  val get_async :
    t -> key:Key.t -> ([ `Found of string | `Missing | `Failed ] -> unit) -> unit

  val remove_async :
    t -> key:Key.t -> ([ `Ok of bool | `Failed ] -> unit) -> unit

  val poll : t -> timeout:float -> unit
  (** One event-loop step: flush every queued frame, deliver I/O and
      timers for at most [timeout] seconds, flush again. *)

  val in_flight : t -> int
  (** Operations issued asynchronously and not yet concluded. *)

  val cache : t -> Lookup_cache.t
  (** The range cache (hit/miss counters included). *)

  val lookup_rpcs : t -> int
  (** Iterative-lookup messages sent (redirect hops included). *)

  val failures : t -> int
  (** Operations that exhausted their retries. *)
end
