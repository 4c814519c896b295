(** TCP transfer-latency model with slow-start and idle restart.

    §9.3 of the paper attributes much of D2's parallel-case advantage
    to TCP dynamics: a connection idle for more than one RTO drops back
    to a 2-packet initial window, so in a traditional DHT — where
    successive blocks come from ever-different nodes — almost every
    8 KB block download pays ≥ 2 RTTs of slow-start, while D2 keeps
    reusing the same few warm connections.  This module reproduces that
    arithmetic: windows double each round, rounds cost
    [max rtt (serialization time)], and per-connection state remembers
    the window and last-use time. *)

type conn
(** Per-(src,dst) connection state. *)

val initial_window : float
(** Initial/post-idle congestion window in packets (2, as in the
    paper's Linux 2.4 testbed). *)

val fresh_conn : unit -> conn
(** A new, cold connection (window = {!initial_window}). *)

val transfer_time :
  ?rto:float ->
  conn ->
  now:float ->
  rtt:float ->
  bandwidth:float ->
  bytes:int ->
  float
(** [transfer_time conn ~now ~rtt ~bandwidth ~bytes] is the latency in
    seconds to request and fully receive [bytes] over [conn], including
    the request round-trip, with the sender's access link capped at
    [bandwidth] bits/s.  Updates [conn]'s window and last-use time.
    A transfer of 0 bytes costs one RTT (the request/response).
    [rto] (default 0.2 s) is the idle time after which the window
    resets; segments carry 1460 payload bytes. *)

val window : conn -> now:float -> ?rto:float -> unit -> float
(** Current effective window in packets, accounting for idle reset —
    exposed for tests and for the simulator's contention heuristics. *)
