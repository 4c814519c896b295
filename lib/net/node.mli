(** The live node runtime: one D2 storage node behind a transport.

    [Node.serve] wires together a membership ring view, a compiled
    {!D2_dht.Router} for greedy forwarding, and the node's per-key
    table {!D2_sync.Vmap} (version, tombstone and bytes per key;
    the bytes in RAM or in a {!D2_segstore.Store}) behind any
    {!Transport.S}:

    - {b Lookups} are iterative (§5): a node that owns the key answers
      [Owner (range, self)] — exactly what the client's range cache
      stores — and otherwise answers [Redirect next] with the best
      next hop from its own link table; the {e client} walks the path.
    - {b Puts and removes} share one path and fan out: the
      coordinator (normally the key's owner) stamps the write with
      its transport clock ({!D2_sync.Version}) and installs it in one
      table call, forwards copies to the next [depth] distinct
      successors, and acks with the copy count once every forward has
      acked or timed out.  A replica keeps a copy whose version is
      larger than its own.
    - {b Gets} are quorum reads: at [q = 1] (a plain [Get]) one read
      of the table; at [q > 1] the owner first pulls from the next
      [q-1] replicas, taking any newer copy into its table as repair
      would, answers from its own entry, and pushes that entry to
      every consulted replica whose version is smaller.
    - {b Join/probe}: a booting node announces itself to its bootstrap
      peers and merges their membership; every [probe_interval] a node
      probes its successor plus one rotating member, and an
      unresponsive peer is removed from the local ring view (its
      blocks keep serving from the surviving successor replicas).

    The same functor body runs deterministically under
    {!Transport_mem} (multi-node protocol tests) and over real TCP
    under {!Transport_unix} (the [d2d] daemon).

    {b Domain sharding}: one logical node can be served by several
    domains.  Domain 0 owns the canonical instance ([create] +
    [serve]); each extra domain drives a {!sibling} — its own endpoint
    (bound with [SO_REUSEPORT] to the same address) and linkset, but
    the {e same} ring, router, per-key table and membership lock.  The
    kernel spreads inbound connections across the listeners, so each
    domain polls only its own sockets while reads and writes against
    the partitioned table proceed in parallel; a key's version and
    bytes change together under its partition lock. *)

module Key = D2_keyspace.Key

type config = {
  replicas : int;  (** copies per block, owner included (paper: 3) *)
  probe_interval : float;  (** seconds between liveness probes *)
  rpc_timeout : float;  (** per-RPC reply deadline, seconds *)
  repair_interval : float;
      (** seconds between anti-entropy sessions (0 disables repair) *)
}

val default_config : config
(** 3 replicas, 0.5 s probes, 0.25 s RPC timeout, 1 s repair. *)

type repair_stats = {
  mutable repair_frames : int;  (** frames sent or received on repair RPCs *)
  mutable repair_bytes : int;  (** their encoded bytes, both directions *)
  mutable pushed : int;  (** copies a peer installed from our pushes *)
  mutable pulled : int;  (** copies we installed from peer fetches *)
  mutable sessions : int;  (** repair sessions started *)
}

module Make (T : Transport.S) : sig
  type t

  val create :
    T.t ->
    ?policy:D2_dht.Router.policy ->
    ?store:Blockstore.t ->
    config:config ->
    id:Key.t ->
    peers:(int * Key.t) list ->
    unit ->
    t
  (** Build the node for endpoint [T.node]: its ring view starts from
      [peers] (self included automatically; duplicate or colliding
      entries are skipped).  [policy] (default [Fingers]) selects the
      routing-link policy the node's redirects follow — set it
      uniformly across a cluster ([D2_ROUTE_POLICY] in [d2d]).
      [store] (default a fresh in-RAM {!Blockstore.mem_store}) is the
      node's per-key table; with a disk store, Put/Remove acks are
      withheld until a group commit makes the write durable — drive
      {!flush_store} (the daemon does, after every poll; [serve] also
      ticks it) or acks stall.
      @raise Invalid_argument when [config.replicas < 1],
      [probe_interval <= 0], [rpc_timeout <= 0] or
      [repair_interval < 0]. *)

  val sibling : t -> T.t -> t
  (** [sibling t ep] is a worker-domain view of the same logical node:
      handlers installed on [ep], sharing [t]'s identity, ring,
      router and table.  Siblings never announce or probe — drive them
      with [T.poll] only (no [serve]). *)

  val serve : t -> unit
  (** Start serving: install handlers, announce [Join] to every known
      peer (with retries, so staggered process starts converge), and
      begin the probe schedule.  Returns immediately; the caller owns
      the poll loop. *)

  val stop : t -> unit
  (** Stop announcing and probing.  In-flight handlers finish. *)

  val flush_store : t -> unit
  (** One group-commit turn: flush the disk store (a single
      write + fdatasync covering every operation buffered since the
      last turn), release the acks the commit covers, and let
      compaction run.  Instant no-op for mem stores — call it freely
      from any poll loop.  Each instance (node or sibling) drains only
      its own deferred acks. *)

  val ring : t -> D2_dht.Ring.t

  val store : t -> Blockstore.t
  (** The node's per-key table, the same value as {!vmap}. *)

  val id : t -> Key.t
  val requests_served : t -> int

  val vmap : t -> D2_sync.Vmap.t
  (** The node's per-key table (key -> version, tombstone, bytes),
      shared with siblings: every write goes through it, repair
      digests fold over it. *)

  val repair_stats : t -> repair_stats
  (** Live anti-entropy counters (shared with siblings); the
      availability experiment reads them to price repair bandwidth. *)
end
