(** Hash primitives for key construction and block integrity.

    The paper uses SHA-1 content hashes and publisher signatures; this
    reproduction uses stdlib MD5 ([Digest]) chains, which preserve the
    behaviour that matters (deterministic, uniform, collision-unlikely
    identifiers) without cryptographic claims — see DESIGN.md §2. *)

val bytes : int -> string -> string
(** [bytes n s] is an [n]-byte deterministic digest of [s] ([n] ≤ 64),
    built by chaining MD5 blocks. *)

val int64_of : string -> int64
(** First 8 digest bytes as a big-endian int64 (used for the Fig. 4
    "hash of path remainder" field). *)

val uniform_key : string -> Key.t
(** Full 64-byte digest-derived key: the traditional configuration's
    content-hash key for a block. *)
