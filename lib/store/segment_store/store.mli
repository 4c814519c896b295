(** The durable block store: an append-only segment log under a
    group-commit window, a flat-array index checkpointed to disk, and
    out-of-core reads through a hot-block byte cache.

    {b Write path.}  {!put} and {!remove} append a CRC-framed record
    to the active segment's write buffer and return an {e append
    sequence number}; nothing touches the kernel yet.  {!flush} is the
    group commit: one [write(2)] pushes every record buffered since
    the previous flush, one [fdatasync(2)] makes them all durable, and
    {!durable_seq} jumps to the last buffered sequence — the caller
    acks every operation whose sequence is now covered.  The [fsync]
    policy trades durability for speed: [Batch] (the design point)
    amortizes the sync over the window, [Always] syncs inside every
    put (the honest lower bound), [Never] leaves durability to the
    kernel's writeback and reports everything durable immediately.

    {b Read path.}  A get probes the byte cache, then does one
    positional [pread(2)] at the (segment, offset, length) the index
    records — datasets larger than RAM serve at page-cache/disk speed.
    The cache keeps its blocks off the OCaml heap
    ({!D2_cache.Block_cache}), and {!get_into} reads into the caller's
    buffer, so a served block costs no heap allocation.

    {b Recovery.}  Startup loads the newest index checkpoint, replays
    only log records past its watermark, and truncates a torn or
    corrupt tail at the last record whose CRC checks out.  Recovery
    never throws on a damaged log — it yields exactly the durable
    prefix.  A fresh tail segment is always opened, so recovered bytes
    are never appended to.

    {b Compaction.}  Overwrites and removes strand dead bytes in
    sealed segments; once a sealed segment's live fraction drops below
    one half, {!maybe_compact} copies each record the index
    binds into it, read by (offset, length), to the active segment,
    then checkpoints and deletes the file.  A record that fails its
    CRC is dropped as a remove would drop it; the rest survive.

    {b Failure.}  The first failed write(2) or fdatasync — inline or
    in the background flusher — fails the store: {!durable_seq} stops
    where it is, and every later write raises that error.

    Thread-safe: one store-wide mutex brackets every operation (reads
    included — compaction may retire a segment under a concurrent
    get); the domain-sharded runtime's contention unit is the store,
    which the block cache keeps off the disk path for hot reads. *)

module Key = D2_keyspace.Key

type fsync_policy = Always | Batch | Never

val fsync_policy_of_string : string -> fsync_policy option
val fsync_policy_name : fsync_policy -> string

type config = {
  segment_bytes : int;  (** rotation threshold (default 64 MB) *)
  fsync : fsync_policy;  (** default [Batch] *)
  cache_bytes : int;  (** hot-block byte-cache capacity (default 64 MB) *)
}

val default_config : config

type recovery = {
  r_checkpoint_blocks : int;  (** bindings loaded from the checkpoint *)
  r_segments : int;  (** segment files found on disk *)
  r_replayed_records : int;  (** log records applied past the watermark *)
  r_replayed_bytes : int;
  r_truncated_bytes : int;  (** torn/corrupt tail bytes cut off *)
  r_wall_s : float;
}

type t

val create : dir:string -> ?config:config -> unit -> t
(** Open (creating [dir] if needed) and recover whatever state the
    directory holds.  An empty directory is a fresh store. *)

val recovery : t -> recovery option
(** Stats of the startup recovery; [None] for a fresh directory. *)

(** {1 Operations} *)

val put : t -> key:Key.t -> data:D2_util.Slice.t -> int
(** Buffer a write; returns its append sequence (durable once
    [durable_seq] reaches it — immediately under [Always]/[Never]).
    The bytes are copied into the log and the cache before this
    returns, so [data] may be a window of a reused buffer.
    @raise Invalid_argument if [data] exceeds {!Record.max_data}. *)

val remove : t -> key:Key.t -> bool * int
(** [(removed, seq)].  A remove of an absent key appends nothing and
    returns [(false, 0)] — sequence 0 is always durable. *)

val get : t -> key:Key.t -> string option
(** A fresh copy of the key's payload. *)

val get_into : t -> key:Key.t -> Bytes.t -> int
(** The payload copied into [buf] at offset 0, from the cache or by
    one pread on a miss: its length, or [-1] when the key is absent.
    Nothing is allocated.
    @raise Invalid_argument if the payload does not fit in [buf]. *)

val flush : t -> unit
(** The group commit (see above), synchronously: when it returns,
    every buffered record is durable.  Cheap when nothing is pending. *)

val flush_async : t -> unit
(** Request the group commit without waiting for it.  Under [Batch]
    this wakes the store's background flusher thread — the write and
    the fdatasync happen off-thread while the caller keeps appending,
    and [durable_seq] advances when the disk settles.  This is what an
    event loop should call: the commit rate self-clocks to the device
    instead of stalling the loop one sync at a time.  Under [Never] it
    pushes the write buffer inline (no sync); under [Always] it is a
    no-op. *)

val needs_flush : t -> bool
(** Whether a flush would do work — buffered bytes or, under [Batch],
    acked-pending sequences. *)

val on_durable : t -> (unit -> unit) -> unit
(** Register a hook fired from the flusher thread after each
    background commit lands ([durable_seq] already advanced).  Wire it
    to the event loop's waker so deferred acks release the moment the
    disk settles rather than at the next timer tick.  Must be
    thread-safe; the default is a no-op. *)

val durable_seq : t -> int

val checkpoint : t -> unit
(** Force an index checkpoint (flushes and syncs first, so the
    checkpoint never references bytes the log does not hold). *)

val maybe_compact : t -> int
(** One step (at most 512 KB relocated) of compacting the sealed
    segment with the lowest live fraction below one half;
    returns 1 when it finished one, else 0.  Cheap (one flag test)
    when no segment crossed the threshold since the last call. *)

val compact : t -> force:bool -> int
(** Compact every victim to completion, with no byte budget and no
    flag gate; returns how many segments were reclaimed.  [force] also
    takes sealed segments holding any dead byte (tests). *)

val close : t -> unit
(** Flush, sync, checkpoint, close descriptors.  A closed store
    rejects further operations. *)

val crash : t -> unit
(** Test hook — abandon the store as [kill -9] would: descriptors are
    closed with {e no} flush, sync, or checkpoint; buffered records
    are lost.  (A never-written empty active segment is unlinked so
    crash-loops do not accrete empty files.) *)

(** {1 Introspection} *)

val count : t -> int

val stored_bytes : t -> int
(** Live payload bytes. *)

val file_bytes : t -> int
(** On-disk segment bytes, dead included. *)

val segment_count : t -> int

val iter_keys : t -> (Key.t -> unit) -> unit
(** Visit every live key with no segment reads — an index-only walk,
    for callers that need the key set but not the payloads. *)

val fsyncs : t -> int
val rotations : t -> int
val compactions : t -> int
val cache : t -> D2_cache.Block_cache.bytes_cache
