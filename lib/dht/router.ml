module Key = D2_keyspace.Key
module Rng = D2_util.Rng

type policy =
  | Fingers
  | Harmonic of int
  | Chord
  | Kademlia of int
  | Successor_only

let policy_name = function
  | Fingers -> "fingers"
  | Harmonic k -> Printf.sprintf "harmonic-%d" k
  | Chord -> "chord"
  | Kademlia b -> Printf.sprintf "kademlia-%d" b
  | Successor_only -> "successor-only"

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "fingers" -> Some Fingers
  | "chord" -> Some Chord
  | "successor-only" | "successor_only" | "walk" -> Some Successor_only
  | s -> (
      let parse prefix mk dflt =
        if s = prefix then Some (mk dflt)
        else
          let pl = String.length prefix in
          if
            String.length s > pl + 1
            && String.sub s 0 pl = prefix
            && s.[pl] = '-'
          then
            match int_of_string_opt (String.sub s (pl + 1) (String.length s - pl - 1)) with
            | Some k when k >= 1 -> Some (mk k)
            | _ -> None
          else None
      in
      match parse "harmonic" (fun k -> Harmonic k) 8 with
      | Some p -> Some p
      | None -> parse "kademlia" (fun b -> Kademlia b) 2)

(* Link tables compiled to one dense jump-table array: rank [r]'s
   sorted outgoing rank-offsets live in [jt.(jidx.(r)) ..
   jt.(jidx.(r+1) - 1)].  The greedy kernel walks it iteratively — a
   binary search for the farthest non-overshooting link per hop, no
   cons cell, no closure — so hop counting allocates nothing.  All
   five policies compile through {!build_tables} into this same
   layout; the kernels never know which policy produced the runs. *)
type t = {
  ring : Ring.t;
  pol : policy;
  rng : Rng.t;
  mutable jt : int array;  (** concatenated per-rank offsets, each run sorted *)
  mutable jidx : int array;  (** length [built_n + 1]: run boundaries *)
  mutable built_n : int;  (** ring size the tables were built for *)
  mutable built_epoch : int;  (** {!Ring.epoch} the tables were built at *)
  samples : (int, int array) Hashtbl.t;
      (** [Harmonic]: node handle -> its retained raw rank offsets, so
          an incremental rebuild keeps surviving members' links stable
          (Symphony re-samples only the joiner, not the whole ring) *)
  mutable frontier : int array;  (** {!route_alpha} scratch: frontier ranks *)
}

let max_alpha = 16

(* Sample a rank offset in [1, n) with P(d) ∝ 1/d. *)
let harmonic_offset rng n =
  let u = Rng.float rng 1.0 in
  let d = int_of_float (float_of_int n ** u) in
  max 1 (min (n - 1) d)

let harmonic_samples t ~node n k =
  match Hashtbl.find_opt t.samples node with
  | Some offs -> offs
  | None ->
      let offs = Array.init (max 0 k) (fun _ -> harmonic_offset t.rng n) in
      Hashtbl.replace t.samples node offs;
      offs

(* Whether every rank gets the same offset run (the run depends only
   on the ring size, never on the node's identity or position). *)
let rank_independent = function
  | Fingers | Kademlia _ | Successor_only -> true
  | Harmonic _ | Chord -> false

(* {2 Per-policy offset generators}

   Each returns the sorted, deduplicated rank offsets of one rank, as
   a list with every element in [1, n); offset 1 (the successor) is
   always present, which is what guarantees the greedy kernel
   terminates for any policy. *)

let fingers_offsets n =
  let rec powers acc p = if p >= n then acc else powers (p :: acc) (2 * p) in
  powers [] 1

(* Kademlia-style buckets over rank distance: bucket j covers
   [2^j, 2^(j+1)), and instead of one contact per bucket the node
   keeps [b] evenly spaced contacts — the b-way bucket overlap that
   lets each hop resolve log2(b) extra bits of distance, the
   lightweight tail-latency trick of the Kademlia-type lookup paper.
   b = 1 degenerates to plain fingers. *)
let kademlia_offsets n b =
  let acc = ref [] in
  let j = ref 1 in
  while !j < n do
    let width = !j in
    for s = 0 to b - 1 do
      let off = width + (s * width / b) in
      if off >= 1 && off < n && off < 2 * width then acc := off :: !acc
    done;
    j := 2 * width
  done;
  1 :: !acc

(* Chord-style fingers in {e key space}: node with ID at position p
   links to the owner of p + 2^i for every i — textbook Chord when IDs
   are uniform hashes.  Positions are the order-preserving 62-bit
   prefix of each member ID, so under D2's locality-preserving ID
   assignment (clustered IDs) most finger targets collapse into the
   same inter-cluster gap and routing degrades toward successor
   walking: exactly the non-uniform-keyspace failure mode Mercury's
   rank links (our [Fingers]) were designed to avoid. *)
let chord_span = 62

let chord_mask = (1 lsl chord_span) - 1

(* First rank whose position is >= [target], wrapping to 0; [pos] is
   non-decreasing because ranks are ID-sorted. *)
let chord_successor_rank pos n target =
  if target > pos.(n - 1) then 0
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if pos.(mid) < target then lo := mid + 1 else hi := mid
    done;
    !lo
  end

let chord_offsets pos n rank =
  let p = pos.(rank) in
  let acc = ref [ 1 ] in
  for i = 0 to chord_span - 1 do
    let target = (p + (1 lsl i)) land chord_mask in
    let rb = chord_successor_rank pos n target in
    let off = ((rb - rank) mod n + n) mod n in
    if off >= 1 then acc := off :: !acc
  done;
  !acc

(* {2 The policy-agnostic table builder} *)

let append buf len offs =
  List.iter
    (fun d ->
      if !len = Array.length !buf then begin
        let b = Array.make (2 * !len) 0 in
        Array.blit !buf 0 b 0 !len;
        buf := b
      end;
      !buf.(!len) <- d;
      incr len)
    offs

let clean n offs = List.sort_uniq compare (List.filter (fun d -> d >= 1 && d < n) offs)

let build_tables t =
  let n = Ring.size t.ring in
  let jidx = Array.make (n + 1) 0 in
  let buf = ref (Array.make (max 16 (4 * n)) 0) in
  let len = ref 0 in
  (if rank_independent t.pol then begin
     (* One shared run, replicated per rank: the offsets depend only
        on [n], so compute them once and blit. *)
     let run =
       Array.of_list
         (clean n
            (match t.pol with
            | Successor_only -> [ 1 ]
            | Fingers -> fingers_offsets n
            | Kademlia b -> kademlia_offsets n (max 1 b)
            | Harmonic _ | Chord -> assert false))
     in
     let l = Array.length run in
     let total = n * l in
     if total > Array.length !buf then buf := Array.make (max 16 total) 0;
     for rank = 0 to n - 1 do
       Array.blit run 0 !buf (rank * l) l;
       jidx.(rank + 1) <- (rank + 1) * l
     done;
     len := total
   end
   else begin
     let pos =
       match t.pol with
       | Chord ->
           Array.init n (fun r ->
               Key.prefix_at (Ring.id_of t.ring ~node:(Ring.node_at t.ring r)) 0)
       | _ -> [||]
     in
     for rank = 0 to n - 1 do
       let offs =
         match t.pol with
         | Harmonic k ->
             let node = Ring.node_at t.ring rank in
             1 :: Array.to_list (harmonic_samples t ~node n k)
         | Chord -> chord_offsets pos n rank
         | Fingers | Kademlia _ | Successor_only -> assert false
       in
       append buf len (clean n offs);
       jidx.(rank + 1) <- !len
     done
   end);
  t.jt <- Array.sub !buf 0 !len;
  t.jidx <- jidx;
  t.built_n <- n;
  t.built_epoch <- Ring.epoch t.ring

let create ~ring ~policy ~rng =
  if Ring.size ring = 0 then invalid_arg "Router.create: empty ring";
  let t =
    {
      ring;
      pol = policy;
      rng;
      jt = [||];
      jidx = [||];
      built_n = 0;
      built_epoch = -1;
      samples = Hashtbl.create 16;
      frontier = Array.make max_alpha 0;
    }
  in
  build_tables t;
  t

(* Drop retained harmonic samples of departed members once they
   outnumber the ring (lazy pruning keeps [rebuild] O(members)). *)
let prune_samples t =
  let n = Ring.size t.ring in
  if Hashtbl.length t.samples > 2 * n + 16 then begin
    let stale =
      Hashtbl.fold
        (fun node _ acc -> if Ring.mem t.ring ~node then acc else node :: acc)
        t.samples []
    in
    List.iter (Hashtbl.remove t.samples) stale
  end

(* Epoch-stamped incremental rebuild: a no-op when the ring has not
   changed; a stamp-only refresh when the tables cannot have changed
   (rank-independent policy, same size — e.g. [change_id] churn); a
   members-only refresh for [Harmonic] (surviving nodes keep their
   retained samples, only joiners are sampled); and a full rebuild
   otherwise ([Chord] couples every run to the global ID layout). *)
let rebuild t =
  if Ring.size t.ring = 0 then invalid_arg "Router.rebuild: empty ring";
  let epoch = Ring.epoch t.ring in
  if epoch <> t.built_epoch then
    if rank_independent t.pol && Ring.size t.ring = t.built_n then
      t.built_epoch <- epoch
    else begin
      prune_samples t;
      build_tables t
    end

let policy t = t.pol

let built_epoch t = t.built_epoch

let links_of t ~node =
  let n = Ring.size t.ring in
  let rank = Ring.rank_of t.ring ~node in
  List.init
    (t.jidx.(rank + 1) - t.jidx.(rank))
    (fun i -> Ring.node_at t.ring ((rank + t.jt.(t.jidx.(rank) + i)) mod n))

let check_current t =
  if Ring.epoch t.ring <> t.built_epoch then
    invalid_arg "Router.route: ring changed since build; call rebuild"

(* Farthest offset of [rank] that does not exceed [d]: the runs are
   sorted and always start with offset 1, so this is the predecessor
   of [d+1] by binary search. *)
let best_offset t rank d =
  let jt = t.jt in
  let lo = ref t.jidx.(rank) and hi = ref t.jidx.(rank + 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get jt mid <= d then lo := mid else hi := mid
  done;
  Array.unsafe_get jt !lo

(* The iterative greedy kernel: advance [rank] toward [target], one
   call to [visit] per hop.  [visit] is a known local function at both
   call sites below, so the loop runs unboxed and cons-free. *)
let walk t ~src ~key visit =
  check_current t;
  let n = Ring.size t.ring in
  let owner = Ring.successor t.ring key in
  let target = Ring.rank_of t.ring ~node:owner in
  let rank = ref (Ring.rank_of t.ring ~node:src) in
  let steps = ref 0 in
  while ((target - !rank) mod n + n) mod n <> 0 do
    if !steps > 2 * n then invalid_arg "Router.route: routing did not converge";
    let d = ((target - !rank) mod n + n) mod n in
    rank := (!rank + best_offset t !rank d) mod n;
    visit !rank;
    incr steps
  done

let route t ~src ~key =
  let acc = ref [] in
  walk t ~src ~key (fun rank -> acc := Ring.node_at t.ring rank :: !acc);
  List.rev !acc

let hops t ~src ~key =
  let count = ref 0 in
  walk t ~src ~key (fun _ -> incr count);
  !count

(* α-way parallel lookup kernel: up to [alpha] frontiers start at the
   α {e best} (farthest non-overshooting) distinct next hops of [src]
   and advance greedily in lockstep rounds; the lookup concludes when
   the first frontier reaches the owner.  Frontier 0 follows exactly
   the single-path greedy route, so the effective hop count can never
   exceed {!hops} — the extra frontiers only buy insurance (against a
   slow or dead best hop, in the live runtime) at the price of extra
   messages.  Returns [(hops, messages)]: [hops] is the number of
   lockstep rounds until the first arrival and [messages] the number
   of query/reply exchanges issued (= [hops] when [alpha = 1]); both
   are 0 when [src] owns the key.  Frontiers that collide are merged,
   so duplicated work is never double-counted.  Allocation-free: the
   frontier scratch lives in [t]. *)
let route_alpha t ~src ~key ~alpha =
  if alpha < 1 then invalid_arg "Router.route_alpha: alpha must be >= 1";
  check_current t;
  let alpha = min alpha max_alpha in
  let n = Ring.size t.ring in
  let owner = Ring.successor t.ring key in
  let target = Ring.rank_of t.ring ~node:owner in
  let src_rank = Ring.rank_of t.ring ~node:src in
  let dist rank = ((target - rank) mod n + n) mod n in
  let d0 = dist src_rank in
  if d0 = 0 then (0, 0)
  else begin
    let fr = t.frontier in
    (* Seed the frontiers with the α largest non-overshooting offsets
       of [src] — its best α next hops — scanning the sorted run
       backward from the predecessor of d0+1. *)
    let base = t.jidx.(src_rank) in
    let hi = ref (t.jidx.(src_rank + 1) - 1) in
    while !hi > base && t.jt.(!hi) > d0 do
      decr hi
    done;
    let live = ref 0 in
    let i = ref !hi in
    while !live < alpha && !i >= base do
      if t.jt.(!i) <= d0 then begin
        fr.(!live) <- (src_rank + t.jt.(!i)) mod n;
        incr live
      end;
      decr i
    done;
    let messages = ref !live in
    let hops = ref 1 in
    let arrived = ref false in
    for f = 0 to !live - 1 do
      if dist fr.(f) = 0 then arrived := true
    done;
    while not !arrived do
      if !hops > 2 * n then
        invalid_arg "Router.route_alpha: routing did not converge";
      (* Advance every frontier one greedy hop, dropping duplicates. *)
      let nlive = ref 0 in
      for f = 0 to !live - 1 do
        let d = dist fr.(f) in
        let next = (fr.(f) + best_offset t fr.(f) d) mod n in
        incr messages;
        let dup = ref false in
        for g = 0 to !nlive - 1 do
          if fr.(g) = next then dup := true
        done;
        if not !dup then begin
          fr.(!nlive) <- next;
          incr nlive
        end
      done;
      live := !nlive;
      incr hops;
      for f = 0 to !live - 1 do
        if dist fr.(f) = 0 then arrived := true
      done
    done;
    (!hops, !messages)
  end
