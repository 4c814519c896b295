(** Explicit long-link routing tables over a ring snapshot.

    {!Ring.route_hops} computes the hop count of an idealized
    rank-finger graph analytically; this module builds the {e actual}
    per-node link tables and routes greedily over them, so routing
    behaviour (paths, hop distributions, the effect of the link
    policy) can be measured rather than assumed.

    Five link policies, all compiled by one policy-agnostic table
    builder into the same dense per-rank jump tables and driven by the
    same zero-alloc iterative kernel:
    - [Fingers]: links at rank distance 1, 2, 4, 8, … — the
      deterministic small-world graph (Chord-in-rank-space), which is
      what Mercury's histogram-guided link placement approximates for
      non-uniform key distributions;
    - [Harmonic k]: [k] links per node with rank offsets drawn from
      the harmonic distribution P(d) ∝ 1/d — Mercury/Symphony's
      randomized construction, expected O(log²n / k) hops;
    - [Chord]: finger tables in {e key space} — node at key position
      [p] links to the owner of [p + 2^i] for each [i].  Equivalent to
      [Fingers] when IDs are uniform (hashed), but degrades toward
      ring walking when IDs are clustered, which is exactly the
      non-uniform-keyspace failure mode D2's order-preserving
      assignment exhibits and Mercury-style rank links fix;
    - [Kademlia b]: rank-distance buckets [2^j, 2^(j+1)) with [b]
      evenly spaced links per bucket — b-way bucket overlap, each hop
      resolving ~log2(b) extra bits; [Kademlia 1] ≡ [Fingers];
    - [Successor_only]: ring walking, the O(n) baseline.

    {2 Hop and message accounting}

    One convention everywhere: {b hops = forwarding steps from [src]
    to the key's owner, excluding the final reply; 0 when [src] owns
    the key.}  {!hops}, {!Ring.route_hops} (the analytic model) and
    the length of {!route} all agree on it.  A full lookup therefore
    costs [hops + 1] messages — the [hops] forwards plus one reply in
    the recursive style, or equivalently the [hops] redirect answers
    plus the owner's answer in the live runtime's iterative style
    (where the client's RPC count to resolve a key via a seed is
    exactly [hops-from-seed + 1]).  {!route_alpha} reports messages as
    query/reply exchanges under the same rule, so [alpha = 1] yields
    [messages = hops].

    Tables are built from a ring snapshot and stamped with
    {!Ring.epoch}; call {!rebuild} after membership changes — it is a
    no-op when the epoch is unchanged and incremental where the policy
    allows. *)

type policy =
  | Fingers
  | Harmonic of int
  | Chord
  | Kademlia of int
  | Successor_only

val policy_name : policy -> string

val policy_of_string : string -> policy option
(** Inverse of {!policy_name} for CLI / env knobs.  Accepts
    ["fingers"], ["harmonic-<k>"] (bare ["harmonic"] = k 8),
    ["chord"], ["kademlia-<b>"] (bare ["kademlia"] = b 2), and
    ["successor-only"]. *)

type t

val create : ring:Ring.t -> policy:policy -> rng:D2_util.Rng.t -> t
(** Build link tables for every current member.
    @raise Invalid_argument on an empty ring. *)

val rebuild : t -> unit
(** Refresh tables after ring membership/ID changes.  Epoch-stamped:
    a no-op when {!Ring.epoch} is unchanged; when only IDs moved
    ([change_id] churn, ring size constant) rank-independent policies
    ([Fingers]/[Kademlia]/[Successor_only]) just restamp, [Harmonic]
    re-samples only nodes it has never seen (survivors keep their
    links), and [Chord] — whose every table depends on the global ID
    layout — falls back to a full rebuild. *)

val policy : t -> policy

val built_epoch : t -> int
(** The {!Ring.epoch} the current tables were built at (tests). *)

val links_of : t -> node:int -> int list
(** This node's outgoing links (node handles), successor first. *)

val route : t -> src:int -> key:D2_keyspace.Key.t -> int list
(** Greedy clockwise route: the sequence of nodes after [src], ending
    with the key's owner ([[]] if [src] owns the key).  Its length is
    {!hops}; a full lookup costs [hops + 1] messages (see the module
    header). *)

val hops : t -> src:int -> key:D2_keyspace.Key.t -> int
(** Length of [route t ~src ~key], counted by the same iterative
    kernel without building the path — allocation-free.  Forwarding
    steps only, the final reply excluded; 0 when [src] owns the key. *)

val route_alpha : t -> src:int -> key:D2_keyspace.Key.t -> alpha:int -> int * int
(** α-way parallel lookup: up to [alpha] frontiers start at the α
    best (farthest non-overshooting) distinct next hops of [src] and
    advance greedily in lockstep; the lookup concludes when the first
    frontier reaches the owner.  Returns [(hops, messages)] — [hops]
    is the number of lockstep rounds to first arrival (never more than
    {!hops}, since the best frontier follows the single-path greedy
    route exactly) and [messages] the query/reply exchanges issued
    ([= hops] when [alpha = 1]; colliding frontiers merge and are not
    double-counted).  [(0, 0)] when [src] owns the key.
    Allocation-free; [alpha] is clamped to 16.
    @raise Invalid_argument if [alpha < 1]. *)
