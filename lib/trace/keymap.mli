(** Trace-to-key mapping for the three system configurations.

    The simulators replay block-level traces ({!D2_trace.Op}) without
    instantiating the full file-system layer; this module gives each
    (path, block) the key D2-FS would have assigned under each key
    policy.  For D2, per-directory slots are assigned in order of
    first appearance — the same rule D2-FS applies at creation time —
    and remembered for the life of the mapping, so re-writes of a path
    reuse its key (placement equivalence with the real FS).

    When a directory's 2-byte slot space overflows (possible for flat
    synthetic namespaces like disk-block traces), the child's slot
    falls back to a hash of its name — the paper's footnote-2 escape
    hatch, which costs a little locality but never fails. *)

module Key = D2_keyspace.Key

type mode = D2_keyspace.Keygen.mode = D2 | Traditional | Traditional_file

val mode_name : mode -> string

type t

val create : mode -> volume:string -> t

val key_of : t -> path:string -> block:int -> Key.t
(** Key of one 8 KB data block of the file at [path]. *)

val key_of_op : t -> Op.op -> Key.t
(** Convenience for replay: key of the block an op touches. *)

val slot_path : t -> path:string -> int list
(** The D2 slot path assigned to [path] (assigning fresh slots if
    needed).  Only meaningful in [D2] mode, but defined for all. *)
