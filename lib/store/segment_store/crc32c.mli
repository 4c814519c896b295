(** CRC-32C (Castagnoli) — the checksum every log record and index
    checkpoint carries, so recovery can tell a torn or corrupt tail
    from durable data.  Computed in C (hardware crc32 on SSE4.2
    machines, slicing-by-8 otherwise); values are ints in [0, 2^32). *)

val string : ?crc:int -> string -> pos:int -> len:int -> int
(** Digest of [len] bytes of [s] starting at [pos].  Pass the previous
    digest as [crc] to extend it over a further slice. *)

val bytes : ?crc:int -> Bytes.t -> pos:int -> len:int -> int
