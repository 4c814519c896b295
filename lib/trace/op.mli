(** Common block-level trace representation.

    All three workloads (Harvard-like NFS, HP-like disk, Web-like) are
    generated into this one format so that the analyzers and
    simulators are workload-agnostic.  An [op] touches one block of
    one file; a logical file read/write of many bytes appears as a run
    of consecutive block ops sharing a timestamp neighbourhood. *)

val block_size : int
(** 8192 — the D2-Store storage unit (§3). *)

type kind =
  | Read
  | Write  (** overwrite of an existing block *)
  | Create  (** first write of a new block (file growth or new file) *)
  | Delete  (** whole-file removal; [bytes] is the size removed *)

type op = {
  time : float;  (** seconds from trace start *)
  user : int;  (** uid / pid / anonymized client, 0-based *)
  path : string;  (** full path; for disk traces, the padded block id *)
  file : int;  (** stable file id (fresh ids for re-created paths) *)
  block : int;  (** block index within the file; 0 for [Delete] *)
  kind : kind;
  bytes : int;  (** bytes touched (≤ [block_size]; file size for Delete) *)
}

type file_info = { file_id : int; file_path : string; file_bytes : int }

type t = {
  name : string;
  duration : float;  (** seconds covered by the trace *)
  users : int;
  ops : op array;  (** sorted by [time] *)
  initial_files : file_info array;
  (** files already present when the trace starts *)
}

val blocks_of_bytes : int -> int
(** Number of 8 KB blocks needed for a byte size (min 1). *)

val validate : t -> unit
(** Sanity-check invariants (sorted times, user range, sizes);
    @raise Invalid_argument with a description on violation. *)

val total_initial_bytes : t -> int

val count_kind : t -> kind -> int
