(** Zero-copy I/O on non-blocking descriptors.

    [Unix.read]/[Unix.write] memcpy through an intermediate C buffer
    so they can release the OCaml runtime around a potentially
    blocking syscall.  On a non-blocking socket the syscall never
    blocks, so these stubs call [read]/[send] directly on the OCaml
    buffer — no runtime release, no extra copy.  On the 8 KB-block
    data path that is one full memcpy of every payload byte saved in
    each direction.

    Only ever pass non-blocking descriptors. *)

val again : int
(** Result meaning EAGAIN/EWOULDBLOCK/EINTR: retry at next readiness. *)

val read : Unix.file_descr -> Bytes.t -> off:int -> len:int -> int
(** Bytes read ([0] = orderly EOF), {!again}, or [-1] on a hard error
    (the stream is past saving). *)

val write : Unix.file_descr -> Bytes.t -> off:int -> len:int -> int
(** Bytes written, {!again}, or [-1] on a hard error.  Uses
    [MSG_NOSIGNAL]: a dead peer yields [-1], never SIGPIPE. *)
