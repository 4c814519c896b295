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

(** The byte FIFO ({!D2_util.Bytebuf}), under the name benches use. *)
module Bytebuf = D2_util.Bytebuf
