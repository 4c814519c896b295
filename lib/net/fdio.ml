(* Zero-copy read/write for NON-BLOCKING sockets: the stdlib's
   Unix.read/write copy every byte through an intermediate C buffer so
   they can release the runtime around a potentially blocking call; a
   non-blocking socket never blocks, so the stubs skip both the
   release and the copy.  Callers MUST only pass non-blocking
   descriptors. *)

external fd_read : Unix.file_descr -> Bytes.t -> int -> int -> int
  = "d2_fd_read"
[@@noalloc]

external fd_write : Unix.file_descr -> Bytes.t -> int -> int -> int
  = "d2_fd_write"
[@@noalloc]

let again = -2
(** Returned by {!read}/{!write} on EAGAIN/EWOULDBLOCK/EINTR. *)

let read fd buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Fdio.read: bad range";
  fd_read fd buf off len

let write fd buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Fdio.write: bad range";
  fd_write fd buf off len
