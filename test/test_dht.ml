(* Tests for the ring: membership, successor assignment, replica
   sets, ID changes, and the rank-finger routing model. *)

module Ring = D2_dht.Ring
module Key = D2_keyspace.Key
module Rng = D2_util.Rng

let k_of_byte b = Key.of_string (String.make 1 (Char.chr b) ^ String.make 63 '\000')

let ring_of_bytes bytes =
  let r = Ring.create () in
  List.iteri (fun node b -> Ring.add r ~id:(k_of_byte b) ~node) bytes;
  r

(* ids 10,20,30 for nodes 0,1,2 *)
let small () = ring_of_bytes [ 10; 20; 30 ]

let test_add_remove () =
  let r = small () in
  Alcotest.(check int) "size" 3 (Ring.size r);
  Alcotest.(check bool) "mem" true (Ring.mem r ~node:1);
  Ring.remove r ~node:1;
  Alcotest.(check int) "size after remove" 2 (Ring.size r);
  Alcotest.(check bool) "not mem" false (Ring.mem r ~node:1);
  Ring.check_invariants r

let test_add_duplicates_rejected () =
  let r = small () in
  Alcotest.check_raises "node taken" (Invalid_argument "Ring.add: node already a member")
    (fun () -> Ring.add r ~id:(k_of_byte 99) ~node:0);
  Alcotest.check_raises "id taken" (Invalid_argument "Ring.add: id already taken")
    (fun () -> Ring.add r ~id:(k_of_byte 10) ~node:9);
  Alcotest.check_raises "remove missing" (Invalid_argument "Ring.id_of: node is not a member")
    (fun () -> Ring.remove r ~node:9)

let test_successor_rule () =
  let r = small () in
  (* key <= id goes to that id's node; key above the top wraps to the
     smallest id. *)
  Alcotest.(check int) "exact id" 0 (Ring.successor r (k_of_byte 10));
  Alcotest.(check int) "between" 1 (Ring.successor r (k_of_byte 11));
  Alcotest.(check int) "wrap" 0 (Ring.successor r (k_of_byte 200));
  Alcotest.(check int) "below all" 0 (Ring.successor r (k_of_byte 5))

let test_successors_replicas () =
  let r = small () in
  Alcotest.(check (list int)) "r=2 from key 15" [ 1; 2 ] (Ring.successors r (k_of_byte 15) 2);
  Alcotest.(check (list int)) "wraps" [ 2; 0 ] (Ring.successors r (k_of_byte 25) 2);
  Alcotest.(check (list int)) "capped at ring size" [ 1; 2; 0 ]
    (Ring.successors r (k_of_byte 15) 7)

let test_predecessor_range () =
  let r = small () in
  Alcotest.(check bool) "pred of node1 is id of node0" true
    (Key.equal (Ring.predecessor_id r ~node:1) (k_of_byte 10));
  Alcotest.(check bool) "pred of first wraps to last" true
    (Key.equal (Ring.predecessor_id r ~node:0) (k_of_byte 30))

let test_single_node_owns_all () =
  let r = ring_of_bytes [ 42 ] in
  Alcotest.(check int) "any key" 0 (Ring.successor r (k_of_byte 1));
  Alcotest.(check bool) "own pred is self" true
    (Key.equal (Ring.predecessor_id r ~node:0) (k_of_byte 42))

let test_change_id () =
  let r = small () in
  Ring.change_id r ~node:2 ~id:(k_of_byte 15);
  Alcotest.(check int) "now owns 12..15" 2 (Ring.successor r (k_of_byte 12));
  Alcotest.(check int) "old range fell to wrap owner" 0 (Ring.successor r (k_of_byte 29));
  Ring.check_invariants r

let test_rank_node_roundtrip () =
  let r = small () in
  for rank = 0 to 2 do
    let node = Ring.node_at r rank in
    Alcotest.(check int) "roundtrip" rank (Ring.rank_of r ~node)
  done;
  Alcotest.(check int) "mod wrap" (Ring.node_at r 0) (Ring.node_at r 3);
  Alcotest.(check int) "nth successor" 2 (Ring.nth_successor_of_node r ~node:0 2);
  Alcotest.(check int) "nth wraps" 0 (Ring.nth_successor_of_node r ~node:1 2)

let test_id_taken () =
  let r = small () in
  Alcotest.(check bool) "taken" true (Ring.id_taken r (k_of_byte 20));
  Alcotest.(check bool) "free" false (Ring.id_taken r (k_of_byte 21))

let test_route_hops () =
  let r = small () in
  Alcotest.(check int) "own key 0 hops" 0 (Ring.route_hops r ~src:0 ~key:(k_of_byte 9));
  Alcotest.(check int) "next node 1 hop" 1 (Ring.route_hops r ~src:0 ~key:(k_of_byte 15));
  (* distance 2 = one finger *)
  Alcotest.(check int) "distance 2" 1 (Ring.route_hops r ~src:0 ~key:(k_of_byte 25))

let test_route_hops_log_bound () =
  let rng = Rng.create 21 in
  let r = Ring.create () in
  let n = 1024 in
  for i = 0 to n - 1 do
    Ring.add r ~id:(Key.random rng) ~node:i
  done;
  let max_hops = ref 0 and sum = ref 0 in
  let trials = 2000 in
  for _ = 1 to trials do
    let h = Ring.route_hops r ~src:(Rng.int rng n) ~key:(Key.random rng) in
    if h > !max_hops then max_hops := h;
    sum := !sum + h
  done;
  Alcotest.(check bool) "max <= log2 n" true (!max_hops <= 10);
  let mean = float_of_int !sum /. float_of_int trials in
  Alcotest.(check bool) "mean near log2(n)/2" true (mean > 3.0 && mean < 7.0)

let prop_successor_matches_bruteforce =
  QCheck.Test.make ~name:"successor matches brute force" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 20) (int_range 0 255)) (int_bound 255))
    (fun (bytes, kb) ->
      let bytes = List.sort_uniq compare bytes in
      let r = ring_of_bytes bytes in
      let key = k_of_byte kb in
      let expect =
        (* Smallest id >= key, else smallest id. *)
        match List.filter (fun b -> b >= kb) bytes with
        | b :: _ -> b
        | [] -> List.hd bytes
      in
      let node = Ring.successor r key in
      Key.equal (Ring.id_of r ~node) (k_of_byte expect))

let prop_successors_distinct =
  QCheck.Test.make ~name:"replica sets have no duplicates" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 20) (int_range 0 255)) small_nat)
    (fun (bytes, r_count) ->
      let bytes = List.sort_uniq compare bytes in
      let r = ring_of_bytes bytes in
      let succ = Ring.successors r (k_of_byte 100) (1 + r_count) in
      List.length succ = List.length (List.sort_uniq compare succ))

(* {1 Prefix fast path}

   [Ring.lower_bound] resolves most comparisons with precomputed
   unboxed int prefixes (taken at the ids' common-prefix offset) and
   only falls back to byte comparison on prefix ties.  These tests pin
   the accelerated path to the pure [Key.compare] semantics, including
   the adversarial case the prefix cannot discriminate: keys sharing a
   long common prefix and differing only in trailing bytes. *)

(* A key with [shared] leading 'p' bytes, then 3 bytes from [tail]. *)
let shared_prefix_key ~shared tail =
  let b = Bytes.make 64 '\000' in
  Bytes.fill b 0 shared 'p';
  Bytes.set b shared (Char.chr ((tail lsr 16) land 0xff));
  Bytes.set b (shared + 1) (Char.chr ((tail lsr 8) land 0xff));
  Bytes.set b (shared + 2) (Char.chr (tail land 0xff));
  Key.of_string (Bytes.to_string b)

let brute_successor ids key =
  match List.filter (fun id -> Key.compare id key >= 0) ids with
  | id :: _ -> id
  | [] -> List.hd ids

let check_ring_agrees_with_bruteforce ids probes =
  let r = Ring.create () in
  List.iteri (fun node id -> Ring.add r ~id ~node) ids;
  Ring.check_invariants r;
  List.for_all
    (fun key ->
      let node = Ring.successor r key in
      Key.equal (Ring.id_of r ~node) (brute_successor ids key))
    probes

let prop_prefix_successor_shared_prefixes =
  (* Ids and probes share [shared] leading bytes (0..61), so the
     ring's dynamic prefix offset lands right at the divergence point
     and ties are common. *)
  QCheck.Test.make ~name:"prefix successor = brute force (shared prefixes)" ~count:300
    QCheck.(
      triple (int_bound 61)
        (list_of_size Gen.(int_range 1 24) (int_bound 0xffffff))
        (list_of_size Gen.(int_range 1 30) (int_bound 0xffffff)))
    (fun (shared, tails, probes) ->
      let ids = List.sort_uniq Key.compare (List.map (shared_prefix_key ~shared) tails) in
      check_ring_agrees_with_bruteforce ids (List.map (shared_prefix_key ~shared) probes))

let prop_prefix_successor_random_keys =
  (* Fully random 64-byte keys: prefixes diverge early, the int
     compare settles nearly everything. *)
  QCheck.Test.make ~name:"prefix successor = brute force (random keys)" ~count:200
    QCheck.(pair (int_bound 10_000) small_nat)
    (fun (seed, extra) ->
      let rng = Rng.create (seed + 1) in
      let n = 1 + (extra mod 24) in
      let ids = List.sort_uniq Key.compare (List.init n (fun _ -> Key.random rng)) in
      let probes = List.init 20 (fun _ -> Key.random rng) in
      (* Also probe the ids themselves and their neighbours. *)
      let probes = probes @ ids @ List.map Key.succ ids @ List.map Key.pred ids in
      check_ring_agrees_with_bruteforce ids probes)

let test_prefix_tail_discrimination () =
  (* 60 shared bytes, ids differing only in the last byte — entirely
     below the (clamped) prefix granularity, so every probe exercises
     the byte-compare fallback. *)
  let mk last =
    let b = Bytes.make 64 'p' in
    Bytes.set b 63 (Char.chr last);
    Key.of_string (Bytes.to_string b)
  in
  let ids = List.map mk [ 10; 20; 30; 31 ] in
  let r = Ring.create () in
  List.iteri (fun node id -> Ring.add r ~id ~node) ids;
  Ring.check_invariants r;
  List.iter
    (fun (probe, expect) ->
      let node = Ring.successor r (mk probe) in
      Alcotest.(check bool)
        (Printf.sprintf "probe last-byte %d -> id last-byte %d" probe expect)
        true
        (Key.equal (Ring.id_of r ~node) (mk expect)))
    [ (0, 10); (10, 10); (11, 20); (20, 20); (21, 30); (30, 30); (31, 31); (32, 10); (255, 10) ]

let test_prefix_offset_tracks_membership () =
  (* The common-prefix offset must shrink and grow with membership:
     start with ids sharing 40 bytes, add a divergent id (offset drops
     to 0), remove it again (offset recovers).  check_invariants
     verifies off and every cached prefix after each step. *)
  let ids40 = List.map (fun t -> shared_prefix_key ~shared:40 t) [ 1; 2; 3; 1000; 70000 ] in
  let divergent = k_of_byte 200 in
  let r = Ring.create () in
  List.iteri (fun node id -> Ring.add r ~id ~node) ids40;
  Ring.check_invariants r;
  Ring.add r ~id:divergent ~node:99;
  Ring.check_invariants r;
  let all = List.sort Key.compare (divergent :: ids40) in
  List.iter
    (fun key ->
      let node = Ring.successor r key in
      Alcotest.(check bool) "agrees while mixed" true
        (Key.equal (Ring.id_of r ~node) (brute_successor all key)))
    (List.map Key.succ all @ List.map Key.pred all);
  Ring.remove r ~node:99;
  Ring.check_invariants r;
  (* change_id across the prefix boundary. *)
  Ring.change_id r ~node:0 ~id:(k_of_byte 5);
  Ring.check_invariants r

let test_random_membership_stress () =
  (* Random adds/removes/changes keep the invariants. *)
  let rng = Rng.create 33 in
  let r = Ring.create () in
  let present = Hashtbl.create 64 in
  for step = 0 to 2000 do
    let node = Rng.int rng 50 in
    (match (Hashtbl.mem present node, Rng.int rng 3) with
    | false, _ ->
        let id = Key.random rng in
        if not (Ring.id_taken r id) then begin
          Ring.add r ~id ~node;
          Hashtbl.replace present node ()
        end
    | true, 0 ->
        Ring.remove r ~node;
        Hashtbl.remove present node
    | true, _ ->
        let id = Key.random rng in
        if not (Ring.id_taken r id) then Ring.change_id r ~node ~id);
    if step mod 100 = 0 then Ring.check_invariants r
  done;
  Ring.check_invariants r

(* {1 Router: explicit link tables} *)

module Router = D2_dht.Router

let mk_random_ring n seed =
  let rng = Rng.create seed in
  let r = Ring.create () in
  for i = 0 to n - 1 do
    Ring.add r ~id:(Key.random rng) ~node:i
  done;
  (r, rng)

let test_router_reaches_owner () =
  let ring, rng = mk_random_ring 64 41 in
  List.iter
    (fun policy ->
      let router = Router.create ~ring ~policy ~rng:(Rng.copy rng) in
      for _ = 1 to 200 do
        let src = Rng.int rng 64 in
        let key = Key.random rng in
        let path = Router.route router ~src ~key in
        let final = match List.rev path with [] -> src | last :: _ -> last in
        Alcotest.(check int)
          (Router.policy_name policy ^ " terminates at owner")
          (Ring.successor ring key) final
      done)
    [
      Router.Fingers;
      Router.Harmonic 6;
      Router.Chord;
      Router.Kademlia 3;
      Router.Successor_only;
    ]

let test_router_own_key_zero_hops () =
  let ring, rng = mk_random_ring 16 42 in
  let router = Router.create ~ring ~policy:Router.Fingers ~rng in
  let node = 3 in
  let key = Ring.id_of ring ~node in
  Alcotest.(check int) "own key" 0 (Router.hops router ~src:node ~key)

let test_router_fingers_match_analytic_model () =
  let ring, rng = mk_random_ring 128 43 in
  let router = Router.create ~ring ~policy:Router.Fingers ~rng:(Rng.copy rng) in
  for _ = 1 to 300 do
    let src = Rng.int rng 128 in
    let key = Key.random rng in
    Alcotest.(check int) "table routing = popcount model"
      (Ring.route_hops ring ~src ~key)
      (Router.hops router ~src ~key)
  done

let test_router_policy_ordering () =
  let ring, rng = mk_random_ring 256 44 in
  let fingers = Router.create ~ring ~policy:Router.Fingers ~rng:(Rng.copy rng) in
  let harmonic = Router.create ~ring ~policy:(Router.Harmonic 8) ~rng:(Rng.copy rng) in
  let walk = Router.create ~ring ~policy:Router.Successor_only ~rng:(Rng.copy rng) in
  let mean router =
    let total = ref 0 in
    for _ = 1 to 300 do
      total := !total + Router.hops router ~src:(Rng.int rng 256) ~key:(Key.random rng)
    done;
    float_of_int !total /. 300.0
  in
  let mf = mean fingers and mh = mean harmonic and mw = mean walk in
  Alcotest.(check bool) (Printf.sprintf "fingers %.1f < walk %.1f" mf mw) true (mf < mw /. 4.0);
  Alcotest.(check bool) (Printf.sprintf "harmonic %.1f < walk %.1f" mh mw) true (mh < mw /. 4.0)

let test_router_rebuild_after_change () =
  let ring, rng = mk_random_ring 32 45 in
  let router = Router.create ~ring ~policy:Router.Fingers ~rng:(Rng.copy rng) in
  Ring.remove ring ~node:5;
  Alcotest.check_raises "stale table detected"
    (Invalid_argument "Router.route: ring changed since build; call rebuild") (fun () ->
      ignore (Router.route router ~src:0 ~key:(Key.random rng)));
  Router.rebuild router;
  let key = Key.random rng in
  let path = Router.route router ~src:0 ~key in
  let final = match List.rev path with [] -> 0 | last :: _ -> last in
  Alcotest.(check int) "works after rebuild" (Ring.successor ring key) final

(* Oracle for the compiled kernel: the plain greedy walk over
   [Router.links_of], measured in ring ranks — from each node, take the
   farthest link that does not overshoot the key's owner. *)
let greedy_route router ring ~src ~key =
  let n = Ring.size ring in
  let owner = Ring.successor ring key in
  let dist a b = (Ring.rank_of ring ~node:b - Ring.rank_of ring ~node:a + n) mod n in
  let rec go node acc =
    if node = owner then List.rev acc
    else if List.length acc > n then Alcotest.fail "greedy walk did not converge"
    else begin
      let d = dist node owner in
      let next =
        match Router.links_of router ~node with
        | [] -> Alcotest.fail "node without links"
        | succ :: _ as links ->
            List.fold_left
              (fun best l ->
                let o = dist node l in
                if o <= d && o > dist node best then l else best)
              succ links
      in
      go next (next :: acc)
    end
  in
  go src []

let test_router_kernel_matches_reference () =
  (* The compiled jump-table kernel against the greedy-walk oracle:
     identical hop sequences (and counts) for every policy,
     across rings perturbed by add/remove/change-id churn. *)
  let rng = Rng.create 47 in
  List.iter
    (fun policy ->
      let ring, _ = mk_random_ring 48 48 in
      let next_node = ref 48 in
      for round = 0 to 5 do
        (if round > 0 then
           match Rng.int rng 3 with
           | 0 ->
               Ring.add ring ~id:(Key.random rng) ~node:!next_node;
               incr next_node
           | 1 ->
               if Ring.size ring > 8 then
                 Ring.remove ring ~node:(Ring.node_at ring (Rng.int rng (Ring.size ring)))
           | _ ->
               let node = Ring.node_at ring (Rng.int rng (Ring.size ring)) in
               let id = Key.random rng in
               if not (Ring.id_taken ring id) then Ring.change_id ring ~node ~id);
        let router = Router.create ~ring ~policy ~rng:(Rng.copy rng) in
        for _ = 1 to 100 do
          let src = Ring.node_at ring (Rng.int rng (Ring.size ring)) in
          let key = Key.random rng in
          let expected = greedy_route router ring ~src ~key in
          Alcotest.(check (list int))
            (Router.policy_name policy ^ " hop sequence")
            expected
            (Router.route router ~src ~key);
          Alcotest.(check int)
            (Router.policy_name policy ^ " hop count")
            (List.length expected)
            (Router.hops router ~src ~key)
        done
      done)
    [
      Router.Fingers;
      Router.Harmonic 6;
      Router.Chord;
      Router.Kademlia 2;
      Router.Successor_only;
    ]

let test_router_links_successor_first () =
  let ring, rng = mk_random_ring 16 46 in
  let router = Router.create ~ring ~policy:Router.Fingers ~rng in
  let links = Router.links_of router ~node:(Ring.node_at ring 0) in
  Alcotest.(check bool) "has links" true (List.length links >= 4);
  Alcotest.(check int) "successor first" (Ring.node_at ring 1) (List.hd links)

let test_kademlia_1_is_fingers () =
  (* b = 1 keeps one contact per rank-distance bucket [2^j, 2^(j+1)) —
     exactly the finger offsets — so the two policies must compile to
     identical tables. *)
  let ring, rng = mk_random_ring 100 49 in
  let fingers = Router.create ~ring ~policy:Router.Fingers ~rng:(Rng.copy rng) in
  let kad1 = Router.create ~ring ~policy:(Router.Kademlia 1) ~rng:(Rng.copy rng) in
  List.iter
    (fun node ->
      Alcotest.(check (list int))
        "kademlia-1 links = fingers links"
        (Router.links_of fingers ~node)
        (Router.links_of kad1 ~node))
    (Ring.members ring)

(* The one hop/message convention (router.mli header): hops = the
   forwarding steps to the owner, final reply excluded, 0 on own key;
   route length = hops; analytic Ring.route_hops agrees for Fingers;
   a lookup costs hops + 1 messages, so route_alpha at α=1 reports
   messages = hops. *)
let test_hop_message_convention () =
  let ring, rng = mk_random_ring 96 50 in
  let router = Router.create ~ring ~policy:Router.Fingers ~rng:(Rng.copy rng) in
  let own = Ring.id_of ring ~node:7 in
  Alcotest.(check int) "own key: 0 hops (no reply counted)" 0
    (Router.hops router ~src:7 ~key:own);
  Alcotest.(check int) "own key: analytic agrees" 0
    (Ring.route_hops ring ~src:7 ~key:own);
  Alcotest.(check (pair int int)) "own key: alpha kernel (0 hops, 0 msgs)"
    (0, 0)
    (Router.route_alpha router ~src:7 ~key:own ~alpha:2);
  for _ = 1 to 200 do
    let src = Rng.int rng 96 in
    let key = Key.random rng in
    let h = Router.hops router ~src ~key in
    Alcotest.(check int) "hops = route length"
      (List.length (Router.route router ~src ~key))
      h;
    Alcotest.(check int) "hops = analytic model (reply excluded in both)"
      (Ring.route_hops ring ~src ~key)
      h;
    Alcotest.(check (pair int int)) "alpha=1: same path, messages = hops"
      (h, h)
      (Router.route_alpha router ~src ~key ~alpha:1)
  done

let test_route_alpha_never_slower () =
  (* α frontiers include the greedy single path, so effective hops can
     never exceed the single-path count — for any policy, any α. *)
  let rng = Rng.create 51 in
  List.iter
    (fun policy ->
      let ring, _ = mk_random_ring 80 52 in
      let router = Router.create ~ring ~policy ~rng:(Rng.copy rng) in
      for _ = 1 to 150 do
        let src = Ring.node_at ring (Rng.int rng (Ring.size ring)) in
        let key = Key.random rng in
        let alpha = 1 + Rng.int rng 4 in
        let h1 = Router.hops router ~src ~key in
        let ha, msgs = Router.route_alpha router ~src ~key ~alpha in
        Alcotest.(check bool)
          (Printf.sprintf "%s alpha=%d hops %d <= single-path %d"
             (Router.policy_name policy) alpha ha h1)
          true (ha <= h1);
        Alcotest.(check bool) "messages >= effective hops" true
          (h1 = 0 || msgs >= ha);
        Alcotest.(check bool)
          (Printf.sprintf "messages %d <= alpha x single-path %d" msgs
             (alpha * h1))
          true
          (msgs <= alpha * h1)
      done)
    [
      Router.Fingers;
      Router.Harmonic 6;
      Router.Chord;
      Router.Kademlia 2;
      Router.Successor_only;
    ]

let test_router_epoch_stamping () =
  let ring, rng = mk_random_ring 40 53 in
  let router = Router.create ~ring ~policy:(Router.Harmonic 8) ~rng:(Rng.copy rng) in
  Alcotest.(check int) "stamped at build" (Ring.epoch ring)
    (Router.built_epoch router);
  (* Same epoch: rebuild is a no-op. *)
  Router.rebuild router;
  Alcotest.(check int) "no-op rebuild keeps stamp" (Ring.epoch ring)
    (Router.built_epoch router);
  (* Harmonic keeps surviving members' sampled offsets across an
     incremental rebuild (n unchanged): node 3's rank offsets must not
     be re-rolled when only node 9's ID moves. *)
  let offsets node =
    let rank = Ring.rank_of ring ~node in
    let n = Ring.size ring in
    List.map
      (fun l -> ((Ring.rank_of ring ~node:l - rank) mod n + n) mod n)
      (Router.links_of router ~node)
  in
  let before = offsets 3 in
  let id = Key.random rng in
  if not (Ring.id_taken ring id) then Ring.change_id ring ~node:9 ~id;
  Router.rebuild router;
  Alcotest.(check int) "restamped after change" (Ring.epoch ring)
    (Router.built_epoch router);
  Alcotest.(check (list int)) "survivor's harmonic offsets retained" before
    (offsets 3);
  (* And the rebuilt table still routes correctly. *)
  let key = Key.random rng in
  let path = Router.route router ~src:3 ~key in
  let final = match List.rev path with [] -> 3 | last :: _ -> last in
  Alcotest.(check int) "routes after incremental rebuild"
    (Ring.successor ring key) final

let test_router_epoch_restamp_rank_independent () =
  (* Fingers tables depend only on n, so a change_id (same size) must
     not rebuild anything — just restamp — and routing stays exact. *)
  let ring, rng = mk_random_ring 64 54 in
  let router = Router.create ~ring ~policy:Router.Fingers ~rng:(Rng.copy rng) in
  for _ = 1 to 5 do
    let node = Ring.node_at ring (Rng.int rng 64) in
    let id = Key.random rng in
    if not (Ring.id_taken ring id) then Ring.change_id ring ~node ~id;
    Router.rebuild router;
    Alcotest.(check int) "restamped" (Ring.epoch ring)
      (Router.built_epoch router);
    let src = Ring.node_at ring (Rng.int rng 64) in
    let key = Key.random rng in
    Alcotest.(check int) "analytic model still matches"
      (Ring.route_hops ring ~src ~key)
      (Router.hops router ~src ~key)
  done

let test_policy_of_string_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Router.policy_name p ^ " roundtrips")
        true
        (Router.policy_of_string (Router.policy_name p) = Some p))
    [
      Router.Fingers;
      Router.Harmonic 8;
      Router.Chord;
      Router.Kademlia 2;
      Router.Successor_only;
    ];
  Alcotest.(check bool) "bare harmonic" true
    (Router.policy_of_string "harmonic" = Some (Router.Harmonic 8));
  Alcotest.(check bool) "bare kademlia" true
    (Router.policy_of_string "kademlia" = Some (Router.Kademlia 2));
  Alcotest.(check bool) "garbage rejected" true
    (Router.policy_of_string "mercury-9000" = None);
  Alcotest.(check bool) "kademlia-0 rejected" true
    (Router.policy_of_string "kademlia-0" = None)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "d2_dht"
    [
      ( "ring",
        Alcotest.test_case "add/remove" `Quick test_add_remove
        :: Alcotest.test_case "duplicates rejected" `Quick test_add_duplicates_rejected
        :: Alcotest.test_case "successor rule" `Quick test_successor_rule
        :: Alcotest.test_case "replica sets" `Quick test_successors_replicas
        :: Alcotest.test_case "predecessor range" `Quick test_predecessor_range
        :: Alcotest.test_case "single node" `Quick test_single_node_owns_all
        :: Alcotest.test_case "change id" `Quick test_change_id
        :: Alcotest.test_case "rank roundtrip" `Quick test_rank_node_roundtrip
        :: Alcotest.test_case "id taken" `Quick test_id_taken
        :: Alcotest.test_case "membership stress" `Quick test_random_membership_stress
        :: Alcotest.test_case "prefix tail discrimination" `Quick test_prefix_tail_discrimination
        :: Alcotest.test_case "prefix offset tracks membership" `Quick
             test_prefix_offset_tracks_membership
        :: qcheck
             [
               prop_successor_matches_bruteforce;
               prop_successors_distinct;
               prop_prefix_successor_shared_prefixes;
               prop_prefix_successor_random_keys;
             ] );
      ( "routing",
        [
          Alcotest.test_case "hop basics" `Quick test_route_hops;
          Alcotest.test_case "log bound" `Quick test_route_hops_log_bound;
        ] );
      ( "router",
        [
          Alcotest.test_case "reaches owner" `Quick test_router_reaches_owner;
          Alcotest.test_case "own key 0 hops" `Quick test_router_own_key_zero_hops;
          Alcotest.test_case "fingers = analytic model" `Quick
            test_router_fingers_match_analytic_model;
          Alcotest.test_case "policy ordering" `Quick test_router_policy_ordering;
          Alcotest.test_case "rebuild after change" `Quick test_router_rebuild_after_change;
          Alcotest.test_case "kernel = reference oracle" `Quick
            test_router_kernel_matches_reference;
          Alcotest.test_case "links shape" `Quick test_router_links_successor_first;
          Alcotest.test_case "kademlia-1 = fingers" `Quick test_kademlia_1_is_fingers;
          Alcotest.test_case "hop/message convention" `Quick
            test_hop_message_convention;
          Alcotest.test_case "route_alpha never slower" `Quick
            test_route_alpha_never_slower;
          Alcotest.test_case "epoch stamping" `Quick test_router_epoch_stamping;
          Alcotest.test_case "epoch restamp (rank-independent)" `Quick
            test_router_epoch_restamp_rank_independent;
          Alcotest.test_case "policy_of_string" `Quick test_policy_of_string_roundtrip;
        ] );
    ]
