(** Deterministic in-process loopback transport.

    All endpoints live in one {!D2_simnet.Engine} virtual-time world;
    a [send] schedules delivery of the bytes one-way-RTT later (drawn
    from the {!D2_simnet.Topology} embedding), so multi-node protocol
    runs are byte-reproducible: same seeds, same event order, same
    client cache counters, every time.

    Fault injection:
    - {!kill} takes an endpoint down: established streams deliver a
      close to the other side, later {!connect}s to it refuse;
    - {!set_partition} blackholes traffic between node pairs (messages
      silently vanish; failures surface as RPC timeouts);
    - a [loss] rate resets a stream with that probability per send —
      modelling the broken connections a lossy WAN path produces,
      while keeping each surviving stream's framing intact.

    A whole cluster on this transport is booted, faulted and audited
    through {!Mem_world}. *)

include Transport.S

type net
(** The shared world: engine + topology + fault state. *)

val create_net :
  engine:D2_simnet.Engine.t ->
  topology:D2_simnet.Topology.t ->
  ?loss:float ->
  ?seed:int ->
  unit ->
  net
(** [loss] (a probability, default [0.]) is the per-send reset rate;
    [seed] (default 0x6e67) feeds the loss draws only. *)

val engine : net -> D2_simnet.Engine.t

val endpoint : net -> node:int -> t
(** Bind the endpoint for [node] (a {!D2_simnet.Topology} index).
    @raise Invalid_argument if out of range or already bound. *)

val kill : net -> int -> unit
(** Take a node's endpoint down, breaking all its streams.  Idempotent. *)

val is_up : net -> int -> bool

val set_partition : net -> (int -> int -> bool) option -> unit
(** [Some sep] blackholes every delivery between pairs for which
    [sep src dst] is true; [None] heals.  The cut applies to frames
    already in flight as well: a delivery is dropped if its link was
    severed at {e any} point between send and arrival (a frame on the
    wire when the cable is cut is lost, even if the cut heals before
    the frame's nominal arrival time).  Each call replaces the active
    predicate; episodes are remembered for exactly this in-flight
    check. *)
