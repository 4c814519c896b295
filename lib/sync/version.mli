(** Block versions: one totally ordered (stamp, node) pair.

    Every block write is stamped by its coordinator with its own node
    handle and a stamp, its transport clock in microseconds, raised to
    the key's current stamp + 1 when the clock is not past it
    ({!next}).  Versions compare by stamp, then by node, so two
    coordinators never tie, a key's stamps only grow, and every
    replica that compares two copies keeps the same one: the larger.
    A stamped version's stamp is at least 1.

    {b One clock.}  A later write beats an earlier one only when both
    coordinators read one clock: the virtual clock of the in-memory
    transport, or the wall clock of one host (a loopback cluster).
    Across hosts with skewed clocks, a write can lose to an earlier one
    stamped by a node whose clock runs ahead; the replicas still
    converge, on the larger version. *)

type t = private { stamp : int; node : int }

val zero : t
(** Stamp 0, node 0: the version of a block recovered from a store,
    and the [have] of a reader holding no entry.  It claims nothing:
    every stamped version is larger. *)

val is_zero : t -> bool
val compare : t -> t -> int
val equal : t -> t -> bool

val next : t -> node:int -> now:float -> t
(** The version [node] stamps on the next write of a key whose current
    version is [t], when its transport clock reads [now] seconds: the
    clock in whole µs, or [t.stamp + 1] if that is larger.
    @raise Invalid_argument if [node] is outside u32. *)

val size : int
(** Bytes {!encode_into} writes (12). *)

val encode_into : t -> Bytes.t -> off:int -> unit
(** [u64 stamp][u32 node], big-endian. *)

val decode : Bytes.t -> off:int -> t option
(** The version encoded at [off] ({!size} bytes must be there); [None]
    for a stamp above [max_int] or a zero stamp naming a node, so the
    encoding of a version is unique. *)
