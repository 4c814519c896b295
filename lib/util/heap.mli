(** Polymorphic binary min-heap.

    Used for the free connection slots of [Perf.para_makespan] and
    the expiry queue of [Webcache]; the virtual-time engine keeps its
    own cell heap.  Not thread-safe. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** Empty heap ordered by [cmp] (minimum first). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Minimum element, without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val to_sorted_list : 'a t -> 'a list
(** Non-destructively list the contents in ascending order. O(n log n). *)
