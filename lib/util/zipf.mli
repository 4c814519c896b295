(** Zipf-distributed sampling over ranks [0, n).

    Web object popularity and file access frequency are famously
    zipfian; the workload generators use this module to pick which
    file/URL an access touches.  Sampling is O(1) via a Walker alias
    table (one uniform draw selects a bucket and the alias coin).
    {!prob} gives the exact masses the sampler draws from. *)

type t

val create : n:int -> s:float -> t
(** [create ~n ~s] prepares a sampler over ranks [0..n-1] with
    exponent [s] (typical web workloads: 0.7–1.0). [n] must be
    positive and [s] non-negative. *)

val n : t -> int

val sample : t -> Rng.t -> int
(** Draw a rank; rank 0 is the most popular.  O(1): one uniform draw
    indexes the alias table. *)

val prob : t -> int -> float
(** Probability mass of a rank. *)
