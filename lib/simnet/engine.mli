(** Deterministic discrete-event engine over virtual time.

    This replaces the paper's libasync event loop and drives the
    availability and load-balancing simulations: failures, repairs,
    balancer probes, pointer stabilization and block migrations are all
    events.  Time is in virtual seconds; events at equal times fire in
    scheduling order, so runs are fully deterministic. *)

type t

val create : ?granularity:float -> unit -> t
(** [granularity] is the timer-wheel tick width in virtual seconds
    (default 1.0).  Firing order is identical at any setting; the
    width only tunes how many cells share a wheel slot (coarse) versus
    how often levels cascade (fine).  High-rate
    schedulers like the fleet layer pass a tick sized to a few cells
    per slot.  @raise Invalid_argument if not positive. *)

val now : t -> float
(** Current virtual time, in seconds. Starts at 0. *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** Fire a callback at an absolute time.
    @raise Invalid_argument if [at] is in the past. *)

val schedule_in : t -> delay:float -> (unit -> unit) -> unit
(** Fire a callback [delay] seconds from now ([delay] ≥ 0). *)

val pending : t -> int
(** Number of events (closures and posted cells) not yet fired. *)

val next_at : t -> float option
(** Time of the event {!run} would fire next, or [None] when nothing is
    pending.  A real-time loop bounds its blocking wait with it, then
    calls [run ~until:now]. *)

(** {1 Posted cells}

    Every event lives in one queue: a pool of cells filed in a
    hierarchical timer wheel (3 levels × 256 slots of [granularity]
    seconds each, default 1.0) with a ready-heap in exact (time,
    scheduling-order) order; cells beyond the wheel's 2^24-tick horizon
    go straight to the ready-heap.  A scheduled closure is one such
    cell.  High-volume schedulers (the block store's expiry,
    stabilization and transfer timers, the fleet's client wakes) skip
    the closure by {e posting cells}: unboxed [(tag, payload)] pairs
    delivered to a pre-registered sink callback.

    Closures and posted cells draw sequence numbers from the same
    counter, so they interleave deterministically.  No event can be
    cancelled — encode revocation in the payload (the block store uses
    generation counters). *)

type sink
(** A registered cell-delivery callback. *)

val register_sink : t -> (int -> int -> unit) -> sink
(** [register_sink t f] registers [f] to receive this engine's cells:
    a cell posted with [~tag ~payload] fires as [f tag payload]. *)

val post : t -> sink:sink -> at:float -> tag:int -> payload:int -> unit
(** Fire a cell at an absolute time.
    @raise Invalid_argument if [at] is in the past. *)

val post_in : t -> sink:sink -> delay:float -> tag:int -> payload:int -> unit
(** Fire a cell [delay] seconds from now ([delay] ≥ 0). *)

val run : ?until:float -> t -> unit
(** Process events in time order.  With [until], stops once the clock
    would pass it (the clock is then advanced exactly to [until]);
    without, runs until the queue drains. *)

val every : t -> period:float -> ?until:float -> (unit -> unit) -> unit
(** Convenience: run a callback periodically starting one period from
    now, stopping after [until] when given. *)
