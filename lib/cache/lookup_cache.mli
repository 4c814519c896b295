(** Range-based DHT lookup cache (paper §5).

    A lookup result tells the client which node owns the key {e and}
    the key range that node is responsible for; the client caches
    [(range → node)] and skips the DHT lookup for any future key that
    falls into a cached, unexpired range.  With D2's
    locality-preserving keys a task's next key usually lands in the
    range just cached, so the cache eliminates up to 95% of lookups;
    with hashed keys it rarely does (ranges cover 1/n of a uniformly
    hashed key space).

    Entries expire after [ttl] — 1.25 h in the paper, matched to the
    PlanetLab membership churn rate.  Ranges are half-open ring
    intervals [(lo, hi]]; a wrapping range is stored as two
    non-wrapping pieces. *)

module Key = D2_keyspace.Key

type t

val create : ?ttl:float -> unit -> t
(** [ttl] defaults to 4500 s (1.25 h). *)

val lookup : t -> now:float -> Key.t -> int option
(** Cached owner of the key, if any; counts a hit or a miss, and
    lazily evicts expired entries it encounters. *)

val find : t -> now:float -> Key.t -> int
(** [lookup] as an allocation-free kernel: the cached owner or -1.
    Identical accounting and eviction behaviour. *)

val resolve_into : t -> now:float -> Key.t array -> int array -> unit
(** Batched [find] over a key column: [out.(i)] receives the cached
    owner of [keys.(i)] or -1, probing in index order with exactly the
    sequential semantics (hit/miss counts, evictions, purges included).
    @raise Invalid_argument if [out] is shorter than [keys]. *)

val insert : t -> now:float -> lo:Key.t -> hi:Key.t -> node:int -> unit
(** Record a lookup result: [node] owns [(lo, hi]]. [lo = hi] (the
    whole ring, single-node case) and wrapping ranges are accepted. *)

val invalidate : t -> Key.t -> bool
(** Evict the entry whose range covers the key, if any (true when one
    was dropped).  No effect on the hit/miss counters.  The networked
    client calls this when a cached owner turns out dead or wrong
    before re-resolving. *)

val hits : t -> int
val misses : t -> int

val miss_rate : t -> float
(** misses / (hits + misses); 0 when never used. *)

val entry_count : t -> int

val reset_stats : t -> unit

val clear : t -> unit
(** Drop entries and statistics. *)
