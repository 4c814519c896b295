(** Bucketed range digests for anti-entropy.

    A repair session compares two nodes' views of one ring range
    without shipping the keys: each (key, version, tombstone) entry is
    hashed through the segment store's hardware CRC-32C kernel (the
    checksum the log records already pay for, so the fold costs one
    table-free pass per entry), entries are bucketed by successive
    4-bit slices of the key's hash, and a bucket's digest is the sum
    of its entries' CRCs — addition makes the fold independent of
    iteration order, so two stores holding the same entries produce
    the same digest no matter how their hash tables happen to iterate.

    A mismatched bucket is narrowed by re-digesting its 16 children
    one level deeper ({!fanout} buckets per round over {!max_bits}
    hash bits), so a single divergent key is isolated in
    O(log16 n) round trips; once a bucket is small enough the session
    switches to exchanging its key list ({!items}). *)

module Key = D2_keyspace.Key

type entry = { vv : Version_vector.t; deleted : bool }
(** One key's repair state: its version vector and tombstone flag
    ({!Vmap.entry} is this type). *)

val fanout : int
(** Children per digest level (16 = 4 hash bits per round). *)

val fanout_bits : int

val max_bits : int
(** Hash bits available for bucketing (28); a probe at [max_bits]
    cannot recurse further and must exchange keys. *)

val hash_bits : Key.t -> int
(** The key's top {!max_bits} hash bits: the trie path every bucket
    and child index is read from. *)

val entry_crc : Key.t -> Version_vector.t -> bool -> int
(** CRC-32C over the key bytes, the encoded vector, and the tombstone
    flag — the unit the bucket sums are built from.  Allocates
    nothing: the pieces are laid out in a per-domain buffer.
    @raise Invalid_argument if the vector is not
    {!Version_vector.encodable}. *)

val children :
  iter:((Key.t -> entry -> unit) -> unit) ->
  prefix:int ->
  bits:int ->
  (int * int) array
(** [fanout] child buckets of the node ([prefix], [bits]) as
    (CRC sum mod 2^32, entry count) pairs, folded from whatever
    iterator the caller supplies.  This is the definition of a digest;
    a live node answers probes with {!Vmap.children}, which keeps the
    shallow levels summed as entries change and folds only one
    partition for the deep ones. *)

val max_items : int
(** Most entries one key exchange carries (256). *)

val items :
  iter:((Key.t -> entry -> unit) -> unit) ->
  prefix:int ->
  bits:int ->
  (Key.t * Version_vector.t * bool) list
(** The bucket's first {!max_items} entries, sorted by key so both
    sides enumerate a mismatched bucket in the same order (and, past
    the cap, leave out the same tail). *)
