(** Non-blocking TCP transport over real sockets.

    One endpoint per event loop: a listening socket (optional — pure
    clients skip it) plus outbound connections, all non-blocking and
    driven by a persistent {!Pollset} (epoll on Linux, poll(2)
    elsewhere) — one {!Transport.S.poll} wakeup drains {e every} ready
    descriptor and opportunistically flushes pending writes, so the
    per-wakeup cost scales with ready streams, not registered ones.
    Peers are resolved from node handles by an address function; the
    stock deployment puts node [i] of an [n]-node cluster on
    [127.0.0.1:port_base + i] (see {!loopback}); the binaries take
    [port_base] from [--port-base] or [D2_NET_PORT_BASE].

    A process may run several endpoints, one per domain: with
    [~reuseport:true] every domain binds the same address and the
    kernel spreads inbound connections across their listen sockets
    (the [d2d] daemon's domain-sharded mode).

    Each direction of a stream begins with a 9-byte hello
    ([magic ++ node handle ++ protocol version]) injected and consumed
    by the transport itself, so [on_accept] fires only once the peer's
    identity is known (a peer of another version is dropped first) and
    protocol code never sees transport framing.

    Timers file into a {!D2_simnet.Engine} wheel, the queue
    {!Transport_mem} and the simulator use: they fire in (deadline,
    scheduling order), never early. *)

include Transport.S

val create :
  node:int ->
  addr_of:(int -> Unix.sockaddr option) ->
  ?listen:bool ->
  ?reuseport:bool ->
  unit ->
  t
(** [listen] defaults to [true]; pass [false] for client-only
    endpoints (no address needed for [node] then).  [reuseport]
    (default [false]) sets [SO_REUSEPORT] on the listen socket so
    several endpoints — one per domain — can share one address.
    @raise Unix.Unix_error if binding the listen socket fails. *)

val loopback : port_base:int -> n:int -> int -> Unix.sockaddr option
(** Address function for an [n]-node loopback cluster: node [i] lives
    on [127.0.0.1:port_base + i]; other handles are unresolvable. *)

val wake : t -> unit
(** Interrupt a blocked {!Transport.S.poll} (self-pipe write; safe
    from any thread).  The hook a store's background flusher uses to
    get deferred acks released the moment their records hit disk,
    instead of at the next timer tick. *)

val shutdown : t -> unit
(** Close the listen socket and every connection. *)
