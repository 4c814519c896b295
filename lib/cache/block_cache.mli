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

(** {1 Hot-block byte cache}

    A byte-bounded LRU of whole block payloads with O(1) eviction: the
    front the durable segment store reads through, and the per-node
    retrieval cache of the hot-spot ablation.
    A zero capacity disables retention entirely (every find misses,
    stores are dropped) — the cold-read benchmark configuration.

    Payloads of half a page (2 KB) or more are kept off the OCaml heap,
    in one arena of 4 KB pages sized at twice the capacity (address
    space: only as many pages as were ever in use at once get touched,
    and so resident).  Stores and
    {!cache_find_into} copy bytes in and out and allocate nothing;
    {!cache_find} returns a fresh copy. *)

type bytes_cache

val bytes_cache : capacity:int -> bytes_cache

val cache_store : bytes_cache -> Key.t -> string -> unit
(** Insert or refresh a payload (becomes MRU); evicts LRU entries
    until the capacity holds.  A payload above the capacity is not
    retained, and it drops the key's older cached copy. *)

val cache_store_slice : bytes_cache -> Key.t -> D2_util.Slice.t -> unit
(** {!cache_store} from a window of a buffer: the bytes are copied, so
    the slice may be reused as soon as this returns. *)

val cache_find : bytes_cache -> Key.t -> string option
(** Hit promotes to MRU and counts toward {!cache_hits}. *)

val cache_find_into : bytes_cache -> Key.t -> Bytes.t -> int
(** {!cache_find} into [buf] at offset 0: the payload length on a hit,
    [-1] on a miss.
    @raise Invalid_argument if a hit does not fit in [buf]. *)

val cache_remove : bytes_cache -> Key.t -> unit

val cache_used : bytes_cache -> int
(** Retained payload bytes. *)

val cache_count : bytes_cache -> int
val cache_hits : bytes_cache -> int
val cache_misses : bytes_cache -> int
val cache_evictions : bytes_cache -> int

val cache_arena_bytes : bytes_cache -> int
(** Arena bytes held by cached payloads: whole pages, so at least the
    arena-resident share of {!cache_used}. *)
