(** The in-RAM block index: key → (segment, offset, record length).

    Mirrors the struct-of-arrays block layout the simulator's cluster
    store uses: unboxed int columns addressed by a dense slot id, a
    free-list for reuse, a [Key.Table] interning keys to slots — no
    per-block boxing on the lookup path.  [len] is the {e full} record
    length (header included) so per-segment liveness accounting is
    exact byte-for-byte against file sizes.

    A {e checkpoint} serializes the whole index plus the log-tail
    watermark; startup loads it and replays only records past the
    watermark instead of scanning every segment.  This module is only
    its codec: no path, no system call ({!Segment} holds the file). *)

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

val encode : t -> tail_seg:int -> tail_off:int -> D2_util.Slice.t
(** The index and the log-tail watermark as checkpoint bytes, in a
    buffer the index reuses (valid until the next [encode]).  The
    watermark promises: every record at or past [(tail_seg, tail_off)]
    is {e not} in the bindings, every record before it is — so
    recovery = decode + replay the tail. *)

val decode : string -> (t * int * int) option
(** [Some (index, tail_seg, tail_off)], or [None] for bytes that are
    cut short or fail the magic, length or CRC check.  Whether the
    bindings fit the segments on disk is the store's check. *)
