(** Compiled, replay-ready form of a trace.

    Replaying an {!Op.t} is the hot loop of every simulator, and a
    replay over op records pays twice per op: a boxed record
    pattern-match per field access, and a {!Keymap} walk (path split + per-directory slot
    table probes + key encoding) to recover the op's block key — work
    that is identical across the 4 setups × node counts × seeds that
    replay the same trace.  A plan hoists all of it out of the replay:

    - columnar, unboxed [int]/[float] arrays for time, user, file,
      block, byte count and kind (access them directly in the loop);
    - interned path ids ([path_ids] into [paths]);
    - the initial-file block grid flattened into [init_sizes] with
      per-file [init_offsets];
    - per-{!Keymap.mode} precomputed {!D2_keyspace.Key.t} arrays
      ({!replay_keys}, {!init_keys}), built once per (mode, volume,
      policy) and shared via {!D2_util.Memo} across every consumer.

    Plans are immutable once compiled and cached per trace
    ({!of_trace}), so all of this is domain-safe. *)

module Key = D2_keyspace.Key

(** {1 Kind codes} *)

val kind_read : int
val kind_write : int
val kind_create : int
val kind_delete : int

val kind_code : Op.kind -> int
val kind_of_code : int -> Op.kind
(** @raise Invalid_argument on an out-of-range code. *)

(** {1 Plans} *)

type t = private {
  trace : Op.t;
  n : int;  (** number of ops *)
  times : float array;  (** unboxed float column *)
  users : int array;
  files : int array;
  blocks : int array;
  bytes : int array;
  kinds : int array;  (** {!kind_read} … {!kind_delete} *)
  path_ids : int array;  (** op index -> interned path id *)
  paths : string array;  (** path id -> path *)
  init_files : int array;  (** initial file ids, in trace order *)
  init_path_ids : int array;
  init_offsets : int array;
      (** [nf + 1] entries; initial file [f]'s blocks occupy
          [init_offsets.(f) .. init_offsets.(f+1) - 1] of [init_sizes]
          (and of the key arrays), block [b] at [init_offsets.(f) + b]. *)
  init_sizes : int array;  (** flattened per-block byte sizes *)
  keys : keyset D2_util.Memo.t;
}

and keyset = {
  op_keys : Key.t array;
      (** one key per op; {!Key.zero} placeholders for kinds the policy
          does not key (deletes always — their keys come from the blocks
          recorded at put time) *)
  init_keys : Key.t array;  (** same layout as [init_sizes] *)
}

val compile : Op.t -> t
(** Compile without caching (exposed for the micro-benchmarks; use
    {!of_trace}). *)

val of_trace : Op.t -> t
(** The shared plan of this trace: compiled on first use, cached by
    physical identity, domain-safe. *)

val trace : t -> Op.t
val length : t -> int

val path : t -> int -> string
(** Path of op [i]. *)

(** {1 Precomputed keys}

    Which kinds touch the keymap (and therefore claim D2 directory
    slots, in first-touch order) depends on the consumer: the balance
    simulator keys only mutations, the availability/performance
    replays also key every read. *)

type key_policy =
  | Writes_only  (** writes/creates keyed; reads skipped (§10 replay) *)
  | Reads_and_writes  (** reads keyed too (§8/§9 replays) *)

val replay_keys : ?volume:string -> t -> mode:Keymap.mode -> policy:key_policy -> keyset
(** Keys for a full replay: initial-file blocks first, then ops, walked
    in trace order on a fresh keymap — byte-identical to calling
    {!Keymap.key_of} on that keymap in that order.  [volume] defaults
    to ["vol"].  Memoized per (mode, volume, policy). *)

val init_keys : t -> mode:Keymap.mode -> volume:string -> Key.t array
(** Keys of the initial-file blocks only, for consumers that replicate
    the initial data set under extra volumes (§9.1's volume copies).
    Memoized per (mode, volume). *)
