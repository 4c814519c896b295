(** The 30-second warm window of D2-FS's buffer cache (paper §3).

    A read of a block within 30 s of a previous access is served
    locally (no DHT fetch).  The file-system layer and the performance
    simulator share this bookkeeping: it answers "is this block still
    warm".  (D2-FS buffers its writes for the same window itself; see
    [D2_fs.Fs].) *)

module Key = D2_keyspace.Key

type t

val create : unit -> t

val touch : t -> now:float -> Key.t -> bool
(** Record a read access; returns [true] if the block was already warm
    (accessed less than 30 s before [now]: a hit, no fetch needed). *)

(** {1 Retrieval cache}

    A byte-bounded LRU of block keys and sizes with O(1) eviction: the
    per-node retrieval cache of the hot-spot ablation, which needs
    membership and byte accounting but never the bytes.  A zero
    capacity disables retention entirely (every probe misses, stores
    are dropped, nothing is counted). *)

type bytes_cache

val bytes_cache : capacity:int -> bytes_cache

val cache_store : bytes_cache -> Key.t -> size:int -> unit
(** Insert or refresh a block of [size] bytes (becomes MRU); evicts LRU
    entries until the capacity holds.  A block above the capacity is
    not retained, and it drops the key's older entry. *)

val cache_mem : bytes_cache -> Key.t -> bool
(** Whether the key is held.  A hit promotes to MRU and counts toward
    {!cache_hits}; a miss counts toward {!cache_misses}. *)

val cache_used : bytes_cache -> int
(** Retained block bytes. *)

val cache_count : bytes_cache -> int
val cache_hits : bytes_cache -> int
val cache_misses : bytes_cache -> int
val cache_evictions : bytes_cache -> int
