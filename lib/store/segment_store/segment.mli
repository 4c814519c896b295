(** One append-only segment file ([seg-%08d.log]).

    The active segment owns a write buffer: {!append} only blits into
    it, and {!flush} pushes the whole buffer to the kernel as a single
    [write(2)] — optionally followed by one [fdatasync(2)] — which is
    the disk half of the group-commit trick: every record that arrived
    since the previous flush rides one syscall pair.  Reads are
    positional ([pread(2)], no shared offset), and an offset still
    inside the buffer is served from memory, so a node can read back a
    block it has not yet flushed. *)

module Key = D2_keyspace.Key

type t

val path : dir:string -> id:int -> string

val create : dir:string -> id:int -> t
(** Create the file fresh (truncating any leftover); append mode. *)

val open_existing : dir:string -> id:int -> t
(** Open an existing segment for reads, recovery truncation, and
    deletion bookkeeping.  Appending to it is a bug ({!append} raises):
    recovery always starts a new tail segment. *)

val id : t -> int

val length : t -> int
(** Logical length: bytes written to the file plus bytes buffered. *)

val file_length : t -> int
(** Bytes actually in the file (excludes the write buffer). *)

val synced : t -> int
(** Bytes covered by the last fdatasync. *)

val append : t -> kind:int -> key:Key.t -> data:D2_util.Slice.t -> int
(** Stage one record; returns its offset.  No syscall happens here. *)

val relocate : t -> src:t -> off:int -> len:int -> key:Key.t -> int
(** Read the record at [src]'s [off .. off+len-1] straight into the
    write buffer — compaction moving a live record, as is — and return
    its new offset; or [-1], staging nothing, unless it decodes as one
    whole put record of [key] with a good CRC. *)

val flush : t -> fsync:bool -> unit
(** Drain the write buffer with one [write(2)]; with [fsync], follow
    with one [fdatasync(2)].  No-op when there is nothing to push. *)

val read_into : t -> off:int -> len:int -> Bytes.t -> dst_off:int -> unit
(** Read [len] bytes at logical offset [off] (file or buffer).
    @raise Failure on a short read — the index never points past the
    segment's logical end, so that means external truncation. *)

val read_all : t -> Bytes.t
(** The whole file image (recovery's scan; the write buffer is not
    included — scanned segments have none). *)

val truncate_to : t -> int -> unit
(** Cut the file back to [len] bytes (drop a torn tail). *)

val datasync : t -> unit
(** Bare [fdatasync(2)] on the segment's fd — no bookkeeping, so a
    background flusher can call it without holding the store lock. *)

val mark_synced : t -> upto:int -> unit
(** Record (monotonically) that bytes up to [upto] are on stable
    storage; the post-{!datasync} half, called back under the lock. *)

val close : t -> unit
val unlink : dir:string -> id:int -> unit
