(** 64-byte DHT keys.

    D2 keys (paper §4.2, Fig. 4) are 64-byte strings compared
    lexicographically; the key space is a ring, so interval tests wrap
    around the maximum key.  Node IDs live in the same space. *)

type t

val size : int
(** Always 64. *)

val of_string : string -> t
(** @raise Invalid_argument if the string is not exactly [size] bytes. *)

val to_string : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool

val max_prefix_offset : int
(** Largest valid offset for {!prefix_at}: [size - 8]. *)

val prefix_at : t -> int -> int
(** [prefix_at t off] is the top 62 bits of bytes [off .. off+7] as a
    non-negative int whose ordering agrees with the lexicographic
    ordering of those bytes.  Hot-path structures (the ring's binary
    search, the lookup cache's range map) compare precomputed prefixes
    with one unboxed int comparison and only fall back to byte-wise
    {!compare} on a tie.  [0 <= off <= max_prefix_offset]. *)

val common_prefix_len : t -> t -> int
(** Number of leading bytes on which the two keys agree (0..[size]). *)

val compare_head : t -> t -> int -> int
(** [compare_head a b len] compares only the first [len] bytes. *)

val compare_from : int -> t -> t -> int
(** [compare_from off a b] compares only bytes [off .. size-1]; equal
    to [compare a b] whenever the first [off] bytes agree. *)

val prefix_offset : t array -> int -> int
(** [prefix_offset ids n]: the length of the prefix the sorted keys
    [ids.(0 .. n-1)] share, capped at {!max_prefix_offset}. *)

val lower_bound : t array -> int array -> n:int -> off:int -> t -> int
(** [lower_bound ids pfx ~n ~off key]: the index of the first of the
    sorted keys [ids.(0 .. n-1)] that is [>= key], or [n], searched on
    [pfx.(i) = prefix_at ids.(i) off] with [off = prefix_offset ids n]
    (bytes compared only on a prefix tie).  The ring's and the lookup
    cache's one search. *)

val hash : t -> int
(** Hash of the discriminating bytes only — volume-id tail, slot path
    and block number (Fig. 4 fields) — instead of the whole 64-byte
    string.  Pair with {!equal} in hash tables; see {!Table}. *)

module Table : Hashtbl.S with type key = t
(** [Hashtbl.Make] instance over {!hash}/{!equal}, for key-indexed hot
    tables (block index, holder sets, buffer-cache warmth). *)

val zero : t
(** All-zero key: the smallest point of the ring. *)

val max_key : t
(** All-0xff key: the largest point of the ring. *)

val succ : t -> t
(** Next key on the ring ([max_key] wraps to [zero]). *)

val pred : t -> t
(** Previous key on the ring ([zero] wraps to [max_key]). *)

val in_interval : t -> lo:t -> hi:t -> bool
(** [in_interval k ~lo ~hi] is membership of [k] in the half-open ring
    interval [(lo, hi]].  When [lo = hi] the interval is the full ring
    (a single node owns everything).  This is exactly the "successor
    owns the key" rule of consistent hashing. *)

val random : D2_util.Rng.t -> t
(** Uniformly random key — models a content-hash key in the
    traditional configuration. *)

val of_hex : string -> t
(** @raise Invalid_argument on malformed input. *)

val to_hex : t -> string

val short_hex : t -> string
(** First 8 hex digits, for logs. *)

val pp : Format.formatter -> t -> unit
