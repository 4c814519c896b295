(** The in-RAM block index: key → (segment, offset, record length).

    Mirrors the block-arena layout the simulator's cluster store uses:
    unboxed int columns addressed by a dense slot id, a free-list for
    reuse, a [Key.Table] interning keys to slots — no per-block boxing
    on the lookup path.  [len] is the {e full} record length (header
    included) so per-segment liveness accounting is exact byte-for-byte
    against file sizes.

    A {e checkpoint} serializes the whole index plus the log-tail
    watermark; startup loads it and replays only records past the
    watermark instead of scanning every segment. *)

module Key = D2_keyspace.Key

type t

val create : ?capacity:int -> unit -> t
val count : t -> int

val find : t -> Key.t -> int
(** Slot id, or [-1]. *)

val seg : t -> int -> int
val off : t -> int -> int
val len : t -> int -> int
val key : t -> int -> Key.t

val bind : t -> key:Key.t -> seg:int -> off:int -> len:int -> (int * int) option
(** Insert or overwrite; returns the displaced [(seg, len)] when the
    key was already bound (the caller moves those bytes from live to
    dead). *)

val move : t -> int -> seg:int -> off:int -> unit
(** Re-point slot [s] at a copy of its record (same length) —
    compaction relocating it; the key's hash entry is untouched. *)

val slots : t -> int
(** Slot ids in use are below this. *)

val remove : t -> Key.t -> (int * int) option
(** Drop a binding; returns the dead [(seg, len)] if it existed. *)

val iter : t -> (key:Key.t -> seg:int -> off:int -> len:int -> unit) -> unit

(** {1 Checkpoints} *)

val save : t -> path:string -> tail_seg:int -> tail_off:int -> unit
(** Atomically (write-tmp, fsync, rename) persist the index.  The
    watermark [(tail_seg, tail_off)] promises: every record at or past
    it is {e not} reflected in the saved bindings, and every record
    before it is — so recovery = load + replay the tail.  A failed
    write or fsync removes the tmp file and raises before the rename:
    the previous checkpoint stays. *)

val load : path:string -> (t * int * int) option
(** [Some (index, tail_seg, tail_off)], or [None] when the file is
    missing, truncated, or fails its CRC — the caller falls back to a
    full log scan. *)
