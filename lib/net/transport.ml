(** The pluggable byte-stream transport the node runtime and client
    are functorized over.

    A transport endpoint owns connections to peer endpoints, named by
    integer node handles (the same handles the DHT ring uses; the
    transport maps them to real addresses).  The interface is
    poll-style and callback-driven: nothing blocks, readiness is
    announced via [on_accept] / [on_readable] / [on_close], and
    {!S.poll} performs one bounded step of the event loop — delivering
    I/O and firing due timers.  {!D2_net.Transport_mem} implements it
    over the deterministic virtual-time engine, {!D2_net.Transport_unix}
    over non-blocking TCP sockets; protocol code compiled against this
    signature runs byte-identically on either. *)

module type S = sig
  type t
  (** An endpoint bound to one node handle. *)

  type conn
  (** A bidirectional byte stream to a peer. *)

  val node : t -> int
  val now : t -> float
  (** Transport clock, seconds: virtual time for the in-memory
      transport, wall-clock for TCP. *)

  val connect : t -> dst:int -> conn option
  (** Open a stream to [dst]; [None] when the peer is known dead or
      unresolvable.  The connection is usable immediately — writes are
      buffered until the stream is established. *)

  val peer : conn -> int
  val is_open : conn -> bool

  val send : conn -> Bytes.t -> off:int -> len:int -> unit
  (** Queue bytes for delivery.  Best-effort: bytes sent on a closed
      or dying connection are dropped — loss surfaces as an RPC
      timeout, never as an exception. *)

  val recv_into : conn -> Bytes.t -> off:int -> len:int -> int
  (** Drain up to [len] received bytes into [buf] at [off]; returns
      the count (0 when nothing is pending).  Called from an
      [on_readable] callback this is the zero-copy read path: the TCP
      transport reads straight from the socket into [buf]. *)

  val close : conn -> unit

  val on_accept : t -> (conn -> unit) -> unit
  (** Install the accept callback: fires once per inbound connection,
      after the peer's identity is known. *)

  val on_readable : conn -> (unit -> unit) -> unit
  (** Fires whenever new bytes are available on the connection. *)

  val on_close : conn -> (unit -> unit) -> unit
  (** Fires when the peer closes or the stream breaks. *)

  val schedule : t -> delay:float -> (unit -> unit) -> unit
  (** One-shot timer on the transport clock. *)

  val poll : t -> timeout:float -> unit
  (** Run the event loop for at most [timeout] seconds: deliver
      pending I/O, fire accept/readable/close callbacks and due
      timers.  Returns early when there is nothing left to do. *)
end

(** Grow-on-demand byte FIFO: the transports' receive queues and send
    buffers, a link's coalescing output buffer, and the wire codec's
    frame reassembler.  Positions a caller keeps ([truncate],
    [patch_u32]) count from the read cursor, so they survive the
    compaction a [reserve] may do. *)
module Bytebuf = struct
  type t = { mutable buf : Bytes.t; mutable r : int; mutable w : int }

  let create ?(capacity = 1024) () =
    { buf = Bytes.create capacity; r = 0; w = 0 }
  let length t = t.w - t.r
  let is_empty t = t.r = t.w
  let capacity t = Bytes.length t.buf

  (* Move the unread bytes to the front of the buffer. *)
  let compact t =
    if t.r > 0 then begin
      let n = t.w - t.r in
      Bytes.blit t.buf t.r t.buf 0 n;
      t.r <- 0;
      t.w <- n
    end

  (* The one grow path: make [n] bytes writable at the write cursor,
     compacting if that frees enough room, else growing. *)
  let ensure t n =
    if Bytes.length t.buf - t.w < n then begin
      let used = t.w - t.r in
      if Bytes.length t.buf - used >= n then compact t
      else begin
        let nb = Bytes.create (max (2 * Bytes.length t.buf) (used + n)) in
        Bytes.blit t.buf t.r nb 0 used;
        t.buf <- nb;
        t.r <- 0;
        t.w <- used
      end
    end

  (* Expose [n] writable bytes at the write cursor, so a socket read
     fills the buffer in place; [commit] then claims what was
     written. *)
  let reserve t n =
    ensure t n;
    (t.buf, t.w)

  let commit t n =
    if n < 0 || t.w + n > Bytes.length t.buf then
      invalid_arg "Bytebuf.commit: bad count";
    t.w <- t.w + n

  let write t src ~off ~len =
    ensure t len;
    Bytes.blit src off t.buf t.w len;
    t.w <- t.w + len

  (* Expose the unread region for writev-style draining. *)
  let peek t = (t.buf, t.r, t.w - t.r)

  let consume t n =
    t.r <- min t.w (t.r + n);
    if t.r = t.w then begin
      t.r <- 0;
      t.w <- 0
    end

  let read_into t dst ~off ~len =
    let n = min len (t.w - t.r) in
    Bytes.blit t.buf t.r dst off n;
    consume t n;
    n

  (* Drop everything past the first [n] unread bytes. *)
  let truncate t n =
    if n < 0 || n > t.w - t.r then invalid_arg "Bytebuf.truncate: bad length";
    t.w <- t.r + n

  (* Overwrite the big-endian u32 [at] bytes past the read cursor. *)
  let patch_u32 t ~at v =
    if at < 0 || at + 4 > t.w - t.r then
      invalid_arg "Bytebuf.patch_u32: bad offset";
    Bytes.set_int32_be t.buf (t.r + at) (Int32.of_int v)

  (* Once drained, halve a buffer that a burst grew, down to [floor]:
     memory goes back gradually instead of being held at the
     high-water mark, and a steady stream does not reallocate on every
     batch. *)
  let shrink t ~floor =
    let cap = Bytes.length t.buf in
    if t.r = t.w && cap > floor then t.buf <- Bytes.create (max (cap / 2) floor)
end
