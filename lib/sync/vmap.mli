(** A live node's per-key table: key -> (version vector, tombstone
    flag, bytes).

    This is the one place a node's key state changes.  Writes stamp
    and install in one step ({!write} on the coordinating node,
    {!apply} on a replica receiving a stamped copy), removes leave
    tombstones (a deleted key must keep its vector or anti-entropy
    would resurrect it from a replica that missed the remove), reads
    return a key's vector and bytes together ({!read}), and the repair
    digests fold over the entries ({!iter} / {!iter_range}).

    Only the bytes differ between backends.  An in-RAM table keeps
    them beside the entries, in the same partition.  A disk table
    ([create ~disk]) keeps them in the segment store, whose append
    sequence {!write} and {!apply} return so the caller can hold its
    ack until a group commit covers it.

    Thread-safe: keys hash across 32 independently locked partitions,
    so the domain-sharded runtime's data path runs in parallel across
    domains.  Every read or write of a key's (vector, bytes) pair
    happens under that key's partition lock, so two domains writing
    one key can never leave its bytes and its vector naming different
    writes.  Lock order: a partition lock, then the store's mutex —
    never the other way round. *)

module Key = D2_keyspace.Key

type t

type entry = { vv : Version_vector.t; deleted : bool }

val create : ?disk:D2_segstore.Store.t -> unit -> t
(** An empty in-RAM table, or, with [disk], the table of a node whose
    bytes live in that store.  Every block the store already holds (a
    restarted node) enters under the empty vector, live: it is visible
    to digests and quorum reads, so a sole surviving copy still
    propagates, but it loses to any stamped copy a peer holds. *)

val disk : t -> D2_segstore.Store.t option
(** The segment store holding the bytes; [None] in RAM.  Durability
    (watermarks, group commit, compaction) is driven on it directly. *)

val write :
  t ->
  key:Key.t ->
  node:int ->
  incoming:Version_vector.t ->
  data:string option ->
  (Version_vector.t * bool * int) option
(** Coordinator write path: merge [incoming] (empty for a client
    write) into the key's vector, bump [node], and install [data] —
    [None] writes a tombstone.  Returns [Some (vv, removed, seq)]: the
    new vector (the one the fan-out copies and the client's ack
    carry), whether a tombstone dropped a live block, and the store
    sequence the ack must wait for ([0] in RAM or when nothing was
    appended).  [None], with nothing installed, when the new vector
    would not be {!Version_vector.encodable}. *)

val apply :
  t -> key:Key.t -> vv:Version_vector.t -> data:string option -> bool * int
(** Replica path: resolve an incoming stamped copy ([None] = a
    tombstone) against the local entry and install it if it wins — it
    dominates, or it is concurrent and wins the deterministic
    tiebreak.  Either way the entry ends at the merge of both vectors,
    so a stale copy cannot resurface later, and both sides of a
    concurrent pair converge on the same (vector, bytes).  A copy that
    is dominated or equal changes nothing, and so does one whose merge
    would not be {!Version_vector.encodable}.  Returns
    [(installed, seq)]. *)

val read : t -> key:Key.t -> (entry * string option) option
(** The key's entry and bytes, taken together; the bytes are [None]
    for a tombstone.  [None] when the key has never been seen. *)

val get : t -> key:Key.t -> string option
(** The key's bytes alone (a plain get). *)

val count : t -> int
(** Entries held, tombstones included. *)

val blocks : t -> int
(** Live blocks held. *)

val stored_bytes : t -> int
(** Live payload bytes. *)

val iter : t -> (Key.t -> entry -> unit) -> unit

val iter_range : t -> lo:Key.t -> hi:Key.t -> (Key.t -> entry -> unit) -> unit
(** Entries with key in the half-open ring interval [(lo, hi]]
    ({!Key.in_interval}); the whole table when [lo = hi].  The
    callback runs under a partition lock: it must not call back into
    the table. *)
