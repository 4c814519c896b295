(** A window [buf.[off .. off+len-1]] of a byte buffer: how a block's
    bytes move between the wire codec, the per-key table and the
    segment store without a fresh string per hop.

    A slice does not own its bytes.  Whoever hands one out says how
    long it stays valid — a decoded frame's payload, for one, only
    until the dispatch callback returns, because the next read reuses
    the receive buffer.  Keep the bytes past that point with
    {!to_string}. *)

type t = private { buf : Bytes.t; off : int; len : int }

val v : Bytes.t -> off:int -> len:int -> t
(** @raise Invalid_argument if the window leaves the buffer. *)

val of_string : string -> t
(** The whole string, shared (not copied): the caller must not mutate
    it through the slice, and nothing here does. *)

val to_string : t -> string
(** A fresh copy the caller owns. *)
