(** The D2-FS locality-preserving key encoding (paper §4.2, Fig. 4).

    Layout of the 64-byte key:

    {v
      bytes  0..19  volume id                      (20 bytes)
      bytes 20..43  12 x 2-byte directory slots    (24 bytes)
      bytes 44..51  hash of the path remainder     ( 8 bytes)
      bytes 52..59  block number                   ( 8 bytes)
      bytes 60..63  version hash                   ( 4 bytes)
    v}

    Each file or subdirectory is assigned an unused 2-byte {e slot} in
    its parent directory when it is created; a file's slot path (the
    slots from the volume root down to the file) therefore orders keys
    consistently with a preorder traversal of the namespace.  Slot
    value [0] is reserved as "unused" padding, so real slots range
    over 1..65535 (the paper's 64K files per directory).  Paths deeper
    than 12 levels keep locality for their first 12 components and
    hash the remainder (< 1% of files in the paper's traces). *)

val max_slot : int
(** 65535. *)

type fields = {
  volume : string;  (** exactly 20 bytes *)
  slots : int array;  (** the first [<= 12] slot-path components, each 1..65535 *)
  remainder_hash : int64;  (** 0 when the whole path fits in [slots] *)
  block : int64;  (** 0 = the object's metadata block; data blocks count from 1 *)
  version : int32;  (** distinguishes versions of an overwritten block *)
}

val encode : fields -> Key.t
(** @raise Invalid_argument if [volume] is not 20 bytes, [slots] is
    longer than 12, or any slot is outside 1..[max_slot]. *)

val decode : Key.t -> fields
(** Inverse of [encode] (the remainder hash is recovered as stored;
    the hashed path components themselves are not recoverable). *)

val volume_id : string -> string
(** Derive a 20-byte volume id from a volume name. *)

val of_slot_path :
  volume:string -> slots:int list -> block:int64 -> version:int32 -> Key.t
(** Build a key from a full slot path of any depth: the first 12
    components are encoded positionally and any excess is
    hashed into the remainder field. *)

val slot_prefix_key : volume:string -> slots:int list -> Key.t
(** Smallest key of the subtree rooted at the given slot path — with
    {!slot_prefix_upper_bound} this brackets all keys under a
    directory, which the analyzers use to reason about namespace
    ranges. *)

val slot_prefix_upper_bound : volume:string -> slots:int list -> Key.t
(** Largest possible key under the given slot path. *)
