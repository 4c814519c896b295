(** Fixed pool of [Domain.t] workers for embarrassingly parallel jobs.

    The evaluation suite runs independent experiments (each with its
    own RNG seeds and simulation state) concurrently on OCaml 5
    domains.  The pool is deliberately small and stdlib-only: a task
    queue guarded by a mutex, [jobs] worker domains blocking on a
    condition variable, and promises completed under the same lock.

    Determinism: tasks may {e run} in any order, but {!map} returns
    results in submission order and re-raises the first failing task's
    exception (with its original backtrace), so callers see the same
    values a sequential run would produce. *)

type t

val effective_jobs : int -> int
(** [effective_jobs j] is the worker count a pool created with
    [~jobs:j] actually spawns: [j] capped at
    [Domain.recommended_domain_count ()] (and at least 1).  Callers
    that can avoid spawning domains entirely (e.g. run the work
    sequentially when only one worker would exist) should consult
    this first. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1], and never below 1: one
    core left for the submitting domain.  The binaries let [D2_JOBS]
    override it. *)

val create : ?jobs:int -> unit -> t
(** Spawn a pool of [jobs] worker domains (default {!default_jobs}),
    capped at [Domain.recommended_domain_count ()]: every live domain
    must rendezvous at each stop-the-world minor collection, so
    spawning more domains than the machine has cores makes every task
    slower without adding parallelism.  Task results never depend on
    the worker count.
    @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int
(** Actual worker-domain count (after the core-count cap). *)

type 'a promise

val submit : t -> (unit -> 'a) -> 'a promise
(** Enqueue a task.  @raise Invalid_argument after {!shutdown}. *)

val await : 'a promise -> 'a
(** Block until the task finishes; returns its value or re-raises its
    exception with the original backtrace. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] runs [f] on every element concurrently and returns
    the results in the order of [xs]. *)

val run : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** One-shot convenience: create a pool, {!map}, {!shutdown} — even
    when a task raises. *)

val shutdown : t -> unit
(** Drain queued tasks, then join every worker.  Idempotent. *)
