(** D2-FS: the file-system layer over D2-Store (paper §3–§4).

    A volume is a tree of directories and files stored as blocks in a
    {!D2_store.Cluster}.  All blocks are immutable except the root
    block, which is updated in place; every pointer carries a content
    hash, so each read verifies integrity up from the (hash-signed)
    root.  A write inserts the new data blocks and then fresh versions
    of every metadata block on the path to the root, so readers always
    see an internally consistent snapshot.

    The [mode] selects the key policy the paper compares:
    - [D2]: locality-preserving slot-path keys (Fig. 4).  Sibling
      files and the blocks of one file get adjacent keys.
    - [Traditional]: every block keyed by an independent hash (CFS
      style).
    - [Traditional_file]: one hash per file; all its blocks share the
      ring point (PAST style).

    A 30-second write-back cache buffers file writes: short-lived
    temporary files never reach the DHT, and the metadata-path
    rewrite cost of rapid successive writes is absorbed (§3).  The
    cache flushes on the cluster's virtual clock; [flush] forces it.

    Paths are absolute, [/]-separated ([/a/b/c]); the root is [/]. *)

module Key = D2_keyspace.Key

type mode = D2_keyspace.Keygen.mode = D2 | Traditional | Traditional_file

exception Integrity_violation of string
(** A fetched block's content hash did not match its pointer, or the
    root signature check failed. *)

type t

val create :
  cluster:D2_store.Cluster.t ->
  volume:string ->
  mode:mode ->
  ?write_back:bool ->
  unit ->
  t
(** Initialize an empty volume (writes its root block and root
    directory).  [write_back] (default true) enables the 30 s
    write-back cache; when false, writes commit synchronously. *)

val mode : t -> mode
val volume : t -> string

val mkdir : t -> string -> unit
(** Create a directory, with intermediate directories as needed.
    Idempotent.
    @raise Invalid_argument if a component is a file, committed or
    pending write-back. *)

val write_file : t -> path:string -> data:string -> unit
(** Create or overwrite a file (parents created as needed). With
    write-back enabled the commit happens up to 30 s later on the
    virtual clock. *)

val read_file : t -> string -> string option
(** File contents, with integrity verification on every block.
    Pending write-back data is visible to the writer. [None] if
    absent.
    @raise Integrity_violation on hash mismatch.
    @raise Not_found if a block it needs is missing from the store. *)

val read_range : t -> path:string -> offset:int -> length:int -> string option
(** NFS-style partial read: up to [length] bytes starting at [offset]
    (shorter at end of file; [""] past it).  Only the blocks covering
    the range are fetched.
    @raise Invalid_argument on a negative offset/length.
    @raise Integrity_violation on hash mismatch. *)

val write_range : t -> path:string -> offset:int -> data:string -> unit
(** NFS-style partial write: read-modify-write of the blocks covering
    [offset, offset + length), extending the file (zero-filled) if the
    range lies past the current end.  Creates the file if absent.
    Like any write, it re-publishes the metadata chain to the root.  A
    write into a pending write-back write splices into it and restarts
    its 30 s window. *)

val delete : t -> string -> unit
(** Remove a file or an empty directory (its blocks are removed after
    the store's delayed removal — quick removal preserves locality, §3).
    A pending write-back write is cancelled, and the committed file, if
    any, is removed too.
    @raise Not_found if neither exists. *)

val rename : t -> src:string -> dst:string -> unit
(** Move a file or directory.  Per §4.2, the moved object {e keeps its
    original keys}; only the directory entries change, so no data
    migrates and key-space locality of the subtree is preserved at its
    original home.
    @raise Not_found if [src] is absent. *)

val list_dir : t -> string -> (string * bool) list
(** Entries of a directory as (name, is_directory), sorted by name.
    @raise Not_found if absent. *)

val exists : t -> string -> bool
val is_dir : t -> string -> bool

val file_size : t -> string -> int option

val flush : t -> unit
(** Commit all pending write-back writes now. *)

val file_block_keys : t -> string -> Key.t list
(** DHT keys of a file's metadata + data blocks (flushes first) — lets
    callers and tests inspect placement/locality. @raise Not_found. *)

val blocks_fetched : t -> int
(** Cumulative DHT block fetches performed by this client (cache
    hits excluded) — the locality statistic tests assert on. *)

type snapshot
(** A pinned, internally consistent view of the volume (§3: "all
    readers will see an internally consistent view"; §4.2: version
    fields let "slightly stale views still access the old versions").
    A snapshot pins the root block's state at capture time; its reads
    keep working as long as the superseded blocks survive — i.e. for
    the store's delayed-removal window (30 s) past any overwrite. *)

val snapshot : t -> snapshot
(** Capture the current committed state (pending write-back data is
    flushed first so the writer's own view is included). *)

val snapshot_read : snapshot -> string -> string option
(** Read a file as of the snapshot: the same read as {!read_file},
    from the pinned root.
    @raise Not_found if the snapshot has aged out (a superseded block
    was already removed).
    @raise Integrity_violation on hash mismatch. *)

val snapshot_list : snapshot -> string -> (string * bool) list
(** List a directory as of the snapshot. @raise Not_found as above. *)

type check_report = {
  dirs : int;  (** directories verified *)
  files : int;  (** files verified *)
  bytes : int;  (** file bytes verified against content hashes *)
  problems : string list;  (** human-readable description per defect *)
}

val check_volume : t -> check_report
(** Full-volume integrity walk (an fsck): verifies the root signature
    and every reachable metadata and data block against its pointer's
    content hash.  Never raises; defects are returned in
    [problems]. Flushes pending writes first. *)
