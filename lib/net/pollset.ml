external raw_create : unit -> int = "d2_pollset_create"
external raw_close : int -> unit = "d2_pollset_close"

external raw_set : int -> int -> bool -> bool -> unit = "d2_pollset_set"

external raw_wait : int -> int -> int array -> int array -> int
  = "d2_pollset_wait"

(* Unix.file_descr is the raw int on Unix; this module is Unix-only
   (guarded by the transport that uses it). *)
external fd_int : Unix.file_descr -> int = "%identity"
external int_fd : int -> Unix.file_descr = "%identity"

type t = {
  handle : int;
  fds : int array;  (** ready descriptors of the last wait *)
  events : int array;  (** matching event masks *)
  mutable nready : int;
  mutable closed : bool;
}

let create ?(capacity = 512) () =
  if capacity < 1 then invalid_arg "Pollset.create: capacity < 1";
  {
    handle = raw_create ();
    fds = Array.make capacity 0;
    events = Array.make capacity 0;
    nready = 0;
    closed = false;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.nready <- 0;
    raw_close t.handle
  end

let set t fd ~read ~write =
  if t.closed then invalid_arg "Pollset.set: closed";
  raw_set t.handle (fd_int fd) read write

let remove t fd = set t fd ~read:false ~write:false

let wait t ~timeout_ms =
  if t.closed then invalid_arg "Pollset.wait: closed";
  let n = raw_wait t.handle timeout_ms t.fds t.events in
  t.nready <- n;
  n

let check t i =
  if i < 0 || i >= t.nready then invalid_arg "Pollset: ready index out of range"

let ready_fd t i =
  check t i;
  int_fd t.fds.(i)

let readable t i =
  check t i;
  t.events.(i) land 1 <> 0

let writable t i =
  check t i;
  t.events.(i) land 2 <> 0

let errored t i =
  check t i;
  t.events.(i) land 4 <> 0
