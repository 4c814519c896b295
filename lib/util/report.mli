(** Plain-text table rendering for experiment output.

    Every experiment prints its result as one of these tables so that
    the bench harness output lines up with the paper's tables and
    figure series. *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit
(** Rows shorter than the header are padded with empty cells. *)

val render : t -> string
(** Aligned, boxed, ready to print. *)

val fmt_float : ?decimals:int -> float -> string
(** Fixed-point float formatting, default 3 decimals. *)

val fmt_sci : float -> string
(** Scientific notation with 2 significant decimals (for
    unavailability numbers like 3.1e-05). *)

val fmt_pct : float -> string
(** Fraction rendered as a percentage with one decimal. *)
