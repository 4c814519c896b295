(** Text serialization of block-level traces.

    Traces export to a line-oriented, tab-separated format so they can
    be inspected with standard tools, archived, and replayed across
    runs without regeneration.  Deterministic round trip:
    [load_file] gives back the trace [save_file] wrote. *)

val save_file : Op.t -> string -> unit

val load_file : string -> Op.t
(** @raise Invalid_argument on malformed input (with a line number). *)
