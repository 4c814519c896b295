(** Key construction policies for the three system configurations the
    paper compares (§7, §8.1).

    - {e traditional}: every block gets an independent (content-hash)
      key, so consistent hashing scatters the blocks of one file over
      many nodes.
    - {e traditional-file}: all blocks of a file share a hashed
      per-file prefix and differ only in the trailing block number, so
      the whole file lands on one node, but files are scattered.
    - {e D2}: the locality-preserving encoding of {!Encoding}. *)

val traditional_block :
  volume:string -> path:string -> block:int64 -> version:int32 -> Key.t
(** Independent pseudo-content-hash key per (path, block, version). *)

val traditional_file :
  volume:string -> path:string -> block:int64 -> version:int32 -> Key.t
(** 52-byte hashed (volume, path) prefix, 8-byte block number, 4-byte
    version — every block of the file maps to the same ring point and
    hence the same successor node. *)

type mode = D2 | Traditional | Traditional_file
(** The key policy of a volume: {e D2}, {e traditional} or
    {e traditional-file}. *)

val mode_name : mode -> string

type policy = { mode : mode; volume : string; vol_id : string }
(** A volume's keys: its mode, its name and (for D2 keys) its
    {!Encoding.volume_id}. *)

val policy : mode -> volume:string -> policy

(** {1 The blocks of one volume}

    An object (directory or file) at [path] owns a metadata block
    (directory block or inode) and numbered data blocks.  D2 keys them
    under the object's slot path [slots], the traditional policies
    under [path]; each ignores the other argument. *)

val root_key : policy -> Key.t
(** The volume's root block (§3), the one block rewritten in place. *)

val meta_key : policy -> path:string -> slots:int list -> version:int32 -> Key.t
(** The object's metadata block: block 1 of its slot path under D2,
    block 0 of its path otherwise. *)

val data_key :
  policy -> path:string -> slots:int list -> index:int -> version:int32 -> Key.t
(** The object's [index]-th data block: block [2 + index] of its slot
    path under D2, block [1 + index] of its path otherwise. *)
