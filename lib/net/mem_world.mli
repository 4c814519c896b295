(** A whole D2 cluster on the in-process transport.

    One call boots [n] nodes over {!Transport_mem} in one virtual-time
    world — engine, latency topology, net, nodes serving from
    {!Bootstrap.peers}, and a settle period so the ring views agree —
    and the world then drives the faults a scripted run needs: kills,
    partitions, and an audit of every key's replica group on the ring
    of survivors.

    Nothing is tunable beyond the node config and stores: the topology
    seed (0x7090) and the settle time (3.0 virtual seconds) are fixed,
    a node's coordinates do not depend on [n], and the net runs
    lossless, so two worlds booted alike run alike, event for event. *)

module Key = D2_keyspace.Key
module Version = D2_sync.Version

type t

val boot :
  config:Node.config -> n:int -> ?stores:Blockstore.t list -> unit -> t
(** Boot nodes [0..n-1] on transport slots [0..n-1], serve them and
    run the settle period.  [stores] is one table per node, in slot
    order (default a fresh {!Blockstore.mem_store} each).
    @raise Invalid_argument if [stores] is not [n] long. *)

(* Declared after [boot], whose [config] is the library's
   {!Node.config}. *)
module Node : module type of struct
  include Node.Make (Transport_mem)
end

module Client : module type of struct
  include Client.Make (Transport_mem)
end

val endpoint : t -> Transport_mem.t
(** Bind the next free client slot ([n], then [n + 1], ...; four in
    all), for {!Client.create} or raw frames.
    @raise Invalid_argument once the four are taken. *)

val node_endpoint : t -> int -> Transport_mem.t
(** Node [i]'s own endpoint, the one a {!Node.sibling} shares. *)

val nodes : t -> Node.t array
(** Every node, killed ones included; index = slot. *)

val run : t -> float -> unit
(** Advance virtual time by that many seconds. *)

val next_event_in : t -> float option
(** Virtual seconds until the world's next event, or [None] when none
    is pending: a poll of that timeout fires exactly the next event
    time's events. *)

val kill : t -> int -> unit
(** Take node [i] down: its endpoint dies (streams break, connects
    refuse), its probe and repair clocks stop ({!Node.stop}), and it
    leaves {!live_ring}.  Idempotent. *)

val partition : t -> (int -> int -> bool) -> unit
(** Blackhole traffic between every slot pair the predicate names
    ({!Transport_mem.set_partition}), until {!heal}. *)

val heal : t -> unit

val live_ring : t -> D2_dht.Ring.t
(** The ring of the nodes not killed.  Owned by the world: read it,
    do not change it. *)

val stop : t -> unit
(** Stop every node's probes and repair sessions. *)

(** {1 Replica audit} *)

val copies : t -> Key.t -> (int * Version.t * string) list
(** The copy of the key each live successor in its replica group
    holds (the first [config.replicas] on {!live_ring}), as
    (node, version, bytes), in ring order; a successor without the
    bytes is left out. *)

val audit :
  t -> (Key.t * string) list -> (Key.t * int * Version.t * string option) list
(** Each replica, over the expected (key, bytes) pairs, that is missing
    the key, holds other bytes, or holds a version other than the
    group's (its first live successor's), as (key, node, its version,
    its bytes).  Empty when every group is whole and converged. *)
