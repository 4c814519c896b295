module Key = D2_keyspace.Key

type t = {
  mutable ids : Key.t array;  (** sorted ascending *)
  mutable pfx : int array;  (** [Key.prefix_at ids.(i) off], same index *)
  mutable nodes : int array;  (** node handle at same index *)
  mutable n : int;
  mutable off : int;  (** common-prefix length of all ids, <= max_prefix_offset *)
  mutable epoch : int;  (** bumped on every membership change *)
  by_node : (int, Key.t) Hashtbl.t;
}

let create () =
  {
    ids = [||];
    pfx = [||];
    nodes = [||];
    n = 0;
    off = Key.max_prefix_offset;
    epoch = 0;
    by_node = Hashtbl.create 64;
  }

let size t = t.n

let epoch t = t.epoch

let mem t ~node = Hashtbl.mem t.by_node node

let id_of t ~node =
  match Hashtbl.find_opt t.by_node node with
  | Some id -> id
  | None -> invalid_arg "Ring.id_of: node is not a member"

(* Re-derive [off] after a membership change (load-balanced rings
   derive ids from one volume's keys, so the shared head can be long);
   [fresh] is the index of a newly inserted id still missing its
   prefix, or -1. *)
let sync_prefixes t ~fresh =
  let off = Key.prefix_offset t.ids t.n in
  if off <> t.off then begin
    t.off <- off;
    for i = 0 to t.n - 1 do
      t.pfx.(i) <- Key.prefix_at t.ids.(i) off
    done
  end
  else if fresh >= 0 then t.pfx.(fresh) <- Key.prefix_at t.ids.(fresh) off

(* Index of the first id >= key, or [t.n] if none. *)
let lower_bound t key = Key.lower_bound t.ids t.pfx ~n:t.n ~off:t.off key

let id_taken t key =
  let i = lower_bound t key in
  i < t.n && Key.equal t.ids.(i) key

let rank_of t ~node =
  let id = id_of t ~node in
  let i = lower_bound t id in
  assert (i < t.n && Key.equal t.ids.(i) id);
  i

let node_at t rank =
  if t.n = 0 then invalid_arg "Ring.node_at: empty ring";
  let r = ((rank mod t.n) + t.n) mod t.n in
  t.nodes.(r)

let grow t =
  let cap = Array.length t.ids in
  if t.n = cap then begin
    let ncap = max 16 (2 * cap) in
    let ids = Array.make ncap Key.zero
    and pfx = Array.make ncap 0
    and nodes = Array.make ncap 0 in
    Array.blit t.ids 0 ids 0 t.n;
    Array.blit t.pfx 0 pfx 0 t.n;
    Array.blit t.nodes 0 nodes 0 t.n;
    t.ids <- ids;
    t.pfx <- pfx;
    t.nodes <- nodes
  end

let add t ~id ~node =
  if mem t ~node then invalid_arg "Ring.add: node already a member";
  let i = lower_bound t id in
  if i < t.n && Key.equal t.ids.(i) id then invalid_arg "Ring.add: id already taken";
  grow t;
  Array.blit t.ids i t.ids (i + 1) (t.n - i);
  Array.blit t.pfx i t.pfx (i + 1) (t.n - i);
  Array.blit t.nodes i t.nodes (i + 1) (t.n - i);
  t.ids.(i) <- id;
  t.nodes.(i) <- node;
  t.n <- t.n + 1;
  t.epoch <- t.epoch + 1;
  Hashtbl.replace t.by_node node id;
  sync_prefixes t ~fresh:i

let remove t ~node =
  let i = rank_of t ~node in
  Array.blit t.ids (i + 1) t.ids i (t.n - i - 1);
  Array.blit t.pfx (i + 1) t.pfx i (t.n - i - 1);
  Array.blit t.nodes (i + 1) t.nodes i (t.n - i - 1);
  t.n <- t.n - 1;
  t.epoch <- t.epoch + 1;
  Hashtbl.remove t.by_node node;
  sync_prefixes t ~fresh:(-1)

let change_id t ~node ~id =
  remove t ~node;
  add t ~id ~node

let successor t key =
  if t.n = 0 then invalid_arg "Ring.successor: empty ring";
  let i = lower_bound t key in
  if i = t.n then t.nodes.(0) else t.nodes.(i)

let successors t key r =
  if t.n = 0 then []
  else begin
    let start = let i = lower_bound t key in if i = t.n then 0 else i in
    let count = min r t.n in
    List.init count (fun k -> t.nodes.((start + k) mod t.n))
  end

let iter_successors t key ~limit f =
  if t.n > 0 then begin
    let start = let i = lower_bound t key in if i = t.n then 0 else i in
    let count = min limit t.n in
    let k = ref 0 and continue_ = ref true in
    while !continue_ && !k < count do
      let idx = start + !k in
      let idx = if idx >= t.n then idx - t.n else idx in
      continue_ := f t.nodes.(idx);
      incr k
    done
  end

let predecessor_id t ~node =
  let i = rank_of t ~node in
  t.ids.((i - 1 + t.n) mod t.n)

let nth_successor_of_node t ~node k =
  let i = rank_of t ~node in
  t.nodes.(((i + k) mod t.n + t.n) mod t.n)

(* Set-bit counts of all 16-bit values, built once at module init. *)
let popcount16 =
  Array.init 65536 (fun v ->
      let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + (v land 1)) in
      go v 0)

let route_hops t ~src ~key =
  let owner_idx =
    let i = lower_bound t key in
    if i = t.n then 0 else i
  in
  let src_idx = rank_of t ~node:src in
  let d = ((owner_idx - src_idx) mod t.n + t.n) mod t.n in
  (* Greedy descent over rank fingers at +2^i: one hop per set bit,
     counted by table over 16-bit chunks (d < n, so two suffice for
     any ring below 2^32 nodes; the remaining chunks cost nothing). *)
  Array.unsafe_get popcount16 (d land 0xFFFF)
  + Array.unsafe_get popcount16 ((d lsr 16) land 0xFFFF)
  + Array.unsafe_get popcount16 ((d lsr 32) land 0xFFFF)
  + Array.unsafe_get popcount16 (d lsr 48)

let members t = Array.to_list (Array.sub t.nodes 0 t.n)

let check_invariants t =
  if t.n <> Hashtbl.length t.by_node then
    invalid_arg "Ring.check_invariants: size mismatch";
  for i = 0 to t.n - 2 do
    if Key.compare t.ids.(i) t.ids.(i + 1) >= 0 then
      invalid_arg "Ring.check_invariants: ids not strictly sorted"
  done;
  for i = 0 to t.n - 1 do
    match Hashtbl.find_opt t.by_node t.nodes.(i) with
    | Some id when Key.equal id t.ids.(i) -> ()
    | _ -> invalid_arg "Ring.check_invariants: node/id mapping broken"
  done;
  if t.n > 0 && t.off <> Key.prefix_offset t.ids t.n then
    invalid_arg "Ring.check_invariants: stale prefix offset";
  for i = 0 to t.n - 1 do
    if t.pfx.(i) <> Key.prefix_at t.ids.(i) t.off then
      invalid_arg "Ring.check_invariants: stale prefix cache"
  done
