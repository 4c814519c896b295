(** Persistent readiness pollset: the event-loop seam under
    {!Transport_unix}.

    A pollset keeps the interest table registered across wakeups —
    epoll on Linux, poll(2) elsewhere — so one {!wait} costs O(ready)
    instead of the O(registered) rebuild-and-scan a [select] loop
    pays per iteration.  Registrations are edge-free (level
    triggered): a readable descriptor keeps reporting readable until
    drained, a writable one until the send buffer fills.

    Unix-only (file descriptors are handled as raw ints). *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 512) bounds how many ready descriptors one
    {!wait} can report; more simply arrive on the next wakeup. *)

val close : t -> unit
(** Release the kernel/table resources.  Idempotent. *)

val set : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Register, update or (both [false]) remove interest in a
    descriptor.  Safe to call with the same flags twice; removing an
    unregistered descriptor is a no-op. *)

val remove : t -> Unix.file_descr -> unit
(** [set ~read:false ~write:false]. *)

val wait : t -> timeout_ms:int -> int
(** Block up to [timeout_ms] (0 = non-blocking probe, [-1] = forever)
    and latch the ready set; returns how many descriptors are ready.
    The OCaml runtime lock is released while blocking. *)

val ready_fd : t -> int -> Unix.file_descr
(** [ready_fd t i] is the [i]-th ready descriptor of the last
    {!wait} ([0 <= i < wait]'s return). *)

val readable : t -> int -> bool
val writable : t -> int -> bool
val errored : t -> int -> bool
(** Event flags of the [i]-th ready descriptor: error/hangup is
    reported separately so the loop can tear the stream down even
    when no bytes are pending. *)
