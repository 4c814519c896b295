(** Version vectors over interned node handles.

    Every block write is stamped by its coordinator with a version
    vector: one counter per node that has ever coordinated a write of
    that block.  Replicas use the partial order to tell a newer copy
    from an older one, and a deterministic total-order extension to
    converge on one winner when two copies are concurrent (the classic
    "merge the vectors, keep the winner's bytes" resolution).

    The representation is two parallel int arrays sorted by node — the
    wire protocol's u32 node handles are already the interned compact
    identity (the ring's 64-byte IDs never appear in a vector), so an
    n-entry vector costs 2n ints and every operation is a linear
    array merge with no allocation beyond the result. *)

type t

val empty : t
val is_empty : t -> bool

val cardinal : t -> int
(** Number of (node, counter) entries. *)

val get : t -> int -> int
(** Counter for a node handle; 0 when absent. *)

val bump : t -> node:int -> t
(** Increment [node]'s counter (inserting it at 1). *)

val merge : t -> t -> t
(** Pointwise max — commutative, associative, idempotent. *)

type order =
  | Equal
  | Dominates  (** left supersedes right: every counter >=, one > *)
  | Dominated  (** right supersedes left *)
  | Concurrent

val compare_vv : t -> t -> order

val dominates : t -> t -> bool
(** [dominates a b] — [a] is at least as new as [b] ([Equal] or
    [Dominates]); the empty vector is dominated by everything. *)

val winner : t -> t -> [ `Left | `Right ]
(** Deterministic conflict resolution: the dominant side when the
    vectors are ordered, otherwise the total-order extension (larger
    counter sum, ties broken lexicographically), which every replica
    computes identically — [Concurrent] copies therefore converge. *)

val max_entries : int
(** Cap on entries a codec accepts (64): a vector names at most the
    coordinators that ever stamped the block, so hitting the cap means
    a protocol bug, not organic growth. *)

val encodable : t -> bool
(** Whether {!encode_into} can write [t]: at most {!max_entries}
    entries, every node handle and counter within u32. *)

val encoded_size : t -> int
(** Bytes {!encode_into} writes: 1 + 8 x entries. *)

val encode_into : t -> Bytes.t -> off:int -> int
(** Write [u8 count] then per-entry [u32 node][u32 counter] pairs in
    node order; returns bytes written. *)

val decode : Bytes.t -> off:int -> stop:int -> (t * int) option
(** Parse an encoded vector at [off], reading no byte at or past
    [stop]; [Some (vv, bytes_consumed)] on success, [None] on
    truncation, an entry count above {!max_entries}, or node handles
    out of order (the canonical form is unique, so equality of encoded
    bytes is equality of vectors). *)

val to_string : t -> string
(** Debug rendering, e.g. ["{3:1,7:4}"]. *)

val pp : Format.formatter -> t -> unit
