(** On-disk log-record framing.

    Every mutation the store accepts becomes one record appended to
    the active segment:

    {v
    u32 LE  payload length n
    u32 LE  CRC-32C over (kind byte, key, payload)
    u8      kind (1 = put, 2 = remove)
    64 B    key
    n  B    payload (empty for removes)
    v}

    The CRC sits in the header so a scanner decides a record's fate
    from one contiguous read: too few bytes for the header or the
    payload is a {e torn} tail (the crash cut a write short); a length
    above {!max_data} or a CRC mismatch is {e corrupt}.  Recovery
    treats both the same way — the log ends at the last record that
    checks out. *)

module Key = D2_keyspace.Key

val kind_put : int
val kind_remove : int

val header_len : int
(** 73 bytes: 4 + 4 + 1 + 64. *)

val max_data : int
(** 1 MB — far above the 8 KB wire block; a corrupt length field can
    never make the scanner allocate or skip unboundedly. *)

val encoded_len : data_len:int -> int
(** [header_len + data_len]. *)

val encode_into :
  Bytes.t -> off:int -> kind:int -> key:Key.t -> data:D2_util.Slice.t -> int
(** Write one record at [off]; returns the encoded length.  The caller
    reserves [encoded_len] bytes first. *)

type decoded = {
  d_kind : int;
  d_key : Key.t;
  d_data_off : int;  (** payload offset within the scanned buffer *)
  d_data_len : int;
  d_total : int;  (** full record length, header included *)
}

val decode : Bytes.t -> off:int -> avail:int -> [ `Record of decoded | `Bad ]
(** Decode the record starting at [off] given [avail] readable bytes.
    [`Bad] covers torn and corrupt tails alike — by construction the
    scanner cannot trust anything at or past a bad record. *)
