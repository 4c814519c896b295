(** The node's storage constructors.  A node's blocks live in its
    per-key table, {!D2_sync.Vmap}: in RAM beside the version entries,
    or in a {!D2_segstore.Store} segment log, where a write is
    {e accepted} at once but {e durable} only once a group commit
    covers it. *)

module Key = D2_keyspace.Key

type t = D2_sync.Vmap.t

val mem_store : unit -> t
(** An in-RAM table: every write is durable the instant it returns. *)

val disk : D2_segstore.Store.t -> t
(** A table whose bytes live in the store; the blocks it already holds
    (a restarted node) enter under the zero version
    ({!D2_sync.Vmap.create}). *)

val get : t -> key:Key.t -> string option
(** A key's bytes ({!D2_sync.Vmap.get}). *)
