(** A live node's per-key table: key -> (version, tombstone flag,
    bytes).

    This is the one place a node's key state changes.  Writes stamp
    and install in one step ({!write} on the coordinating node,
    {!apply} on a replica receiving a stamped copy), removes leave
    tombstones (a deleted key must keep its version or anti-entropy
    would resurrect it from a replica that missed the remove), reads
    return a key's version and bytes together ({!read}), and repair
    probes are answered from it ({!children} / {!items}).

    Only the bytes differ between backends.  An in-RAM table keeps
    them beside the entries, in the same partition.  A disk table
    ([create ~disk]) keeps them in the segment store, whose append
    sequence {!write} and {!apply} return so the caller can hold its
    ack until a group commit covers it.

    Thread-safe: keys spread over 32 independently locked partitions
    by the top 5 of their {!Digest.hash_bits}, so the domain-sharded
    runtime's data path runs in parallel across domains.  Every read
    or write of a key's (version, bytes) pair happens under that key's
    partition lock, so two domains writing one key can never leave its
    bytes and its version naming different writes.  Lock order: a
    partition lock, then the store's mutex — never the other way
    round.

    Repair digests are kept, not folded.  For each ring range it has
    been probed on (at most 8, least recently probed evicted), the
    table keeps the {!Digest} sum and count of every 12-bit hash
    prefix, a cell.  A cell lies inside one partition, and a change to
    an entry moves its CRC between cells under the partition lock the
    change already holds, so the sums add no lock.  A probe at most 8
    bits deep adds up cells; a deeper one, and a key listing, walks
    only the partitions the bucket spans (one, from 5 bits down). *)

module Key = D2_keyspace.Key

type t

type entry = Digest.entry = { version : Version.t; deleted : bool }

val create : ?disk:D2_segstore.Store.t -> unit -> t
(** An empty in-RAM table, or, with [disk], the table of a node whose
    bytes live in that store.  Every block the store already holds (a
    restarted node) enters under {!Version.zero}, live: it is visible
    to digests and quorum reads, so a sole surviving copy still
    propagates, but it loses to any stamped copy a peer holds. *)

val disk : t -> D2_segstore.Store.t option
(** The segment store holding the bytes; [None] in RAM.  Durability
    (watermarks, group commit, compaction) is driven on it directly. *)

val write :
  t ->
  key:Key.t ->
  node:int ->
  now:float ->
  data:D2_util.Slice.t option ->
  Version.t * bool * int
(** Coordinator write path: stamp the key's next version
    ({!Version.next} of its current one, by [node] at transport clock
    [now]) and install [data] — [None] writes a tombstone.  Returns
    [(version, removed, seq)]: the new version (the one the fan-out
    copies carry), whether a tombstone dropped a live block, and the
    store sequence the ack must wait for ([0] in RAM or when nothing
    was appended).  The bytes are copied before this returns (into the
    store, or a string in RAM), so [data] may be a borrowed slice. *)

val apply :
  t ->
  key:Key.t ->
  version:Version.t ->
  data:D2_util.Slice.t option ->
  bool * int
(** Replica path: install an incoming stamped copy ([None] = a
    tombstone) if its version is larger than the local entry's, or the
    key has none.  A copy whose version is equal or smaller changes
    nothing, so a stale or duplicated delivery is never re-applied.
    Returns [(installed, seq)].  Copies [data] as {!write} does. *)

val find : t -> key:Key.t -> entry option
(** The key's entry alone, no bytes read.  [None] when the key has
    never been seen. *)

val read :
  ?have:Version.t ->
  t ->
  key:Key.t ->
  Bytes.t ->
  (entry * D2_util.Slice.t option) option
(** [read t ~key scratch]: the key's entry and bytes, taken together.
    The bytes are [None] for a tombstone, and when [have] is a stamped
    version at least the entry's — the reader already holds this copy
    or a newer one, so only the version is worth sending.  [None] when
    the key has never been seen.

    The bytes are borrowed, not copied out: on disk they are read into
    [scratch] by one pread and stay valid until [scratch] is next
    written; in RAM they are the table's own string.
    @raise Invalid_argument if a disk payload does not fit in
    [scratch]. *)

val get : t -> key:Key.t -> string option
(** The key's bytes alone, as a fresh copy (a plain get). *)

val count : t -> int
(** Entries held, tombstones included. *)

val blocks : t -> int
(** Live blocks held. *)

val stored_bytes : t -> int
(** Live payload bytes. *)

val longest_chain : t -> int
(** The longest bucket chain in any partition's hash table: a check
    that the partition rule leaves each table's bucket bits free. *)

val iter : t -> (Key.t -> entry -> unit) -> unit
(** Every entry.  The callback runs under a partition lock: it must
    not call back into the table. *)

(** {1 Repair probes}

    Both answer for the entries with key in the half-open ring
    interval [(lo, hi]] ({!Key.in_interval}), the whole table when
    [lo = hi], exactly as the {!Digest} folds over those entries
    would. *)

val children :
  t -> lo:Key.t -> hi:Key.t -> prefix:int -> bits:int -> (int * int) array
(** {!Digest.children} of the bucket ([prefix], [bits]).  At most 8
    bits deep this sums the range's cells: the first such probe of a
    range folds each partition it reaches once, and writes keep the
    cells current after that.  A deeper probe folds the bucket's one
    partition.
    @raise Invalid_argument when [bits + Digest.fanout_bits] exceeds
    {!Digest.max_bits}. *)

val items :
  t ->
  lo:Key.t ->
  hi:Key.t ->
  prefix:int ->
  bits:int ->
  (Key.t * Version.t * bool) list
(** {!Digest.items} of the bucket ([prefix], [bits]), walking only
    the partitions it spans. *)
