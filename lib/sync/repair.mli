(** The anti-entropy session planner — pure decision logic.

    One repair session reconciles one ring range between two nodes.
    The initiator walks the digest trie: it probes a (prefix, bits)
    bucket by exchanging child digests ({!refine} decides, per
    mismatched child, whether to recurse another digest round or drop
    to the key level), and at the key level {!diff} turns the two
    sorted entry lists into the transfers that make the replicas
    converge — pulls for entries the peer holds newer, pushes for
    entries we hold newer (a concurrent pair produces both: each side
    applies the deterministic winner).

    Keeping the planner free of transport state means the narrowing
    logic is unit-testable against plain lists, and the node runtime
    only schedules the RPCs the planner asks for. *)

module Key = D2_keyspace.Key

type probe = { prefix : int; bits : int }

val root : probe
(** The whole range: prefix 0 at 0 bits. *)

type next =
  | Digest of probe  (** recurse: exchange this child's digests *)
  | Keys of probe  (** narrow enough: exchange this child's entries *)

val refine :
  probe -> local:(int * int) array -> remote:(int * int) array -> next list
(** Compare two child-digest arrays for the same probe; for each child
    whose (sum, count) differs, descend — to another digest round
    while the child is big and above {!Digest.max_bits} headroom, to a
    key exchange otherwise.  Equal children produce nothing: matching
    digests mean matching entries. *)

type transfers = {
  pull : Key.t list;  (** peer's copy supersedes ours (or we miss it) *)
  push : (Key.t * Version_vector.t * bool) list;
      (** our copy supersedes the peer's; (key, vector, tombstone) *)
}

val diff :
  local:(Key.t * Version_vector.t * bool) list ->
  remote:(Key.t * Version_vector.t * bool) list ->
  transfers
(** Key-level reconciliation of one bucket.  Both lists must be sorted
    by key ({!Digest.items} order).  An entry dominated by the other
    side is refreshed from it; concurrent entries appear in both lists
    so each side converges on the deterministic winner. *)
