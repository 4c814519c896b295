(* Per-layer figures of a traced window, named as in the benchmark's
   notes.  Everything here is read from outside the program: the traced
   transport's counters and spans, and the public counters of the
   client, node, store and version map. *)

module Store = D2_segstore.Store
module Block_cache = D2_cache.Block_cache

let m = Common.metric

type client_counts = {
  lookup_rpcs : int;
  failures : int;
  hits : int;
  misses : int;
  entries : int;
}

type node_counts = {
  requests : int;
  repair_sessions : int;
  repair_bytes : int;
  repair_frames : int;
  repair_copies : int;
  vmap_entries : int;
}

type store_counts = {
  fsyncs : int;
  rotations : int;
  compactions : int;
  cache_hits : int;
  cache_misses : int;
  file_bytes : int;
}

let client_counts ~lookup_rpcs ~failures cache =
  {
    lookup_rpcs;
    failures;
    hits = D2_cache.Lookup_cache.hits cache;
    misses = D2_cache.Lookup_cache.misses cache;
    entries = D2_cache.Lookup_cache.entry_count cache;
  }

let node_counts ~requests ~(repair : D2_net.Node.repair_stats) ~vmap =
  {
    requests;
    repair_sessions = repair.sessions;
    repair_bytes = repair.repair_bytes;
    repair_frames = repair.repair_frames;
    repair_copies = repair.pushed + repair.pulled;
    vmap_entries = D2_sync.Vmap.count vmap;
  }

let store_counts st =
  let c = Store.cache st in
  {
    fsyncs = Store.fsyncs st;
    rotations = Store.rotations st;
    compactions = Store.compactions st;
    cache_hits = Block_cache.cache_hits c;
    cache_misses = Block_cache.cache_misses c;
    file_bytes = Store.file_bytes st;
  }

(* Window deltas: counts are differences; [entries], [vmap_entries]
   and [file_bytes] are levels, read at the window's close. *)
let sub_client a b =
  {
    lookup_rpcs = b.lookup_rpcs - a.lookup_rpcs;
    failures = b.failures - a.failures;
    hits = b.hits - a.hits;
    misses = b.misses - a.misses;
    entries = b.entries;
  }

let sub_node a b =
  {
    requests = b.requests - a.requests;
    repair_sessions = b.repair_sessions - a.repair_sessions;
    repair_bytes = b.repair_bytes - a.repair_bytes;
    repair_frames = b.repair_frames - a.repair_frames;
    repair_copies = b.repair_copies - a.repair_copies;
    vmap_entries = b.vmap_entries;
  }

let sub_store a b =
  {
    fsyncs = b.fsyncs - a.fsyncs;
    rotations = b.rotations - a.rotations;
    compactions = b.compactions - a.compactions;
    cache_hits = b.cache_hits - a.cache_hits;
    cache_misses = b.cache_misses - a.cache_misses;
    file_bytes = b.file_bytes;
  }

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs
let sumf f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs

type window = {
  ops : int;
  gets : int;
  puts : int;
  wall_s : float;  (** measured window, wall clock *)
  clock_s : float;  (** the same window on the transport clock *)
  clients : client_counts list;  (** window deltas; [entries] at close *)
  nodes : node_counts list;  (** window deltas; [vmap_entries] at close *)
  stores : store_counts list;  (** window deltas; [file_bytes] at close *)
  live_bytes : int;
  traced : (Traced.stats * Traced.snap) list;  (** window deltas *)
}

let metrics w =
  let ops = max 1 w.ops in
  let per_op x = float_of_int x /. float_of_int ops in
  let tr = w.traced in
  let of_role r = List.filter (fun ((st : Traced.stats), _) -> st.role = r) tr in
  let clients = of_role Traced.Client and nodes = of_role Traced.Node in
  let ints i l = sum (fun (_, (s : Traced.snap)) -> s.s_ints.(i)) l in
  let total k l = sumf (fun (_, (s : Traced.snap)) -> s.s_total.(k)) l in
  let self k l = sumf (fun (_, (s : Traced.snap)) -> s.s_self.(k)) l in
  let count k l = sum (fun (_, (s : Traced.snap)) -> s.s_count.(k)) l in
  let sends = ints Traced.c_sends tr in
  let frames = ints Traced.c_frames_out tr in
  let bytes = ints Traced.c_bytes_out tr in
  let res sel =
    let s = Common.Samples.create () in
    List.iter
      (fun ((st : Traced.stats), _) ->
        let src = sel st in
        Array.iter (Common.Samples.add s) (Common.Samples.sorted src))
      nodes;
    Common.Samples.sorted s
  in
  let get_res = res (fun st -> st.Traced.get_res)
  and put_res = res (fun st -> st.Traced.put_res) in
  let us x = x *. 1e6 in
  let busy =
    List.fold_left
      (fun a (_, (s : Traced.snap)) ->
        Float.max a
          (Common.ratio_f
             (s.s_total.(Traced.k_node_cb) +. s.s_total.(Traced.k_flush))
             w.wall_s))
      0.0 nodes
  in
  let hits = sum (fun c -> c.hits) w.clients
  and misses = sum (fun c -> c.misses) w.clients in
  let lookup_rpcs = sum (fun c -> c.lookup_rpcs) w.clients in
  let n_clients = max 1 (List.length w.clients) in
  let flushes = count Traced.k_flush nodes in
  let enc, dec =
    Traced.codec_ns
      (List.concat_map (fun ((st : Traced.stats), _) -> st.captured) tr)
  in
  let sc f = sum f w.stores in
  [
    m "client.issue_us" "us"
      (us (Common.ratio_f (total Traced.k_issue clients)
             (float_of_int (count Traced.k_issue clients))));
    m "client.reply_us" "us" (us (self Traced.k_client_cb clients /. float_of_int ops));
    m "client.wait_frac" "ratio"
      (Common.ratio_f
         (self Traced.k_poll clients /. float_of_int n_clients)
         w.wall_s);
    m "client.failures" "count" (float_of_int (sum (fun c -> c.failures) w.clients));
    m "lookup_cache.hit_ratio" "ratio" (Common.ratio hits (hits + misses));
    m "lookup_cache.entries" "count"
      (float_of_int (sum (fun c -> c.entries) w.clients) /. float_of_int n_clients);
    m "router.rpcs_per_op" "count" (per_op lookup_rpcs);
    m "router.rpcs_per_miss" "count" (Common.ratio lookup_rpcs misses);
    m "wire.frames_per_op" "count" (per_op frames);
    m "wire.bytes_per_op" "B" (per_op bytes);
    m "wire.lookup_frames_per_op" "count" (per_op (ints Traced.c_lookup tr));
    m "wire.fanout_frames_per_put" "count"
      (Common.ratio (ints Traced.c_fanout tr) w.puts);
    m "wire.quorum_frames_per_get" "count"
      (Common.ratio (ints Traced.c_quorum tr) w.gets);
    m "wire.membership_frames_per_s" "1/s"
      (Common.ratio_f (float_of_int (ints Traced.c_member tr)) w.clock_s);
    m "wire.repair_frames_per_op" "count"
      (per_op (sum (fun n -> n.repair_frames) w.nodes));
    m "wire.encode_ns_per_frame" "ns" enc;
    m "wire.decode_ns_per_frame" "ns" dec;
    m "transport.frames_per_send" "count" (Common.ratio frames sends);
    m "transport.sends_per_op" "count" (per_op sends);
    m "transport.bytes_per_send" "B" (Common.ratio bytes sends);
    m "transport.polls_per_op" "count" (per_op (ints Traced.c_polls tr));
    m "node.dispatch_us_per_frame" "us"
      (us (Common.ratio_f (self Traced.k_node_cb nodes)
             (float_of_int (ints Traced.c_frames_in nodes))));
    m "node.busy_frac" "ratio" busy;
    m "node.get_residence_p50_us" "us" (us (Common.percentile get_res 50.0));
    m "node.get_residence_p99_us" "us" (us (Common.percentile get_res 99.0));
    m "node.put_residence_p50_us" "us" (us (Common.percentile put_res 50.0));
    m "node.put_residence_p99_us" "us" (us (Common.percentile put_res 99.0));
    m "node.requests_per_op" "count" (per_op (sum (fun n -> n.requests) w.nodes));
    m "segstore.flush_us" "us"
      (us (Common.ratio_f (total Traced.k_flush nodes) (float_of_int flushes)));
    m "segstore.fsyncs_per_kput" "count"
      (Common.ratio (1000 * sc (fun s -> s.fsyncs)) w.puts);
    m "segstore.cache_hit_ratio" "ratio"
      (Common.ratio (sc (fun s -> s.cache_hits))
         (sc (fun s -> s.cache_hits + s.cache_misses)));
    m "segstore.compactions" "count" (float_of_int (sc (fun s -> s.compactions)));
    m "segstore.rotations" "count" (float_of_int (sc (fun s -> s.rotations)));
    m "segstore.file_bytes_per_live_byte" "ratio"
      (Common.ratio (sc (fun s -> s.file_bytes)) w.live_bytes);
    m "sync.repair_sessions" "count"
      (float_of_int (sum (fun n -> n.repair_sessions) w.nodes));
    m "sync.repair_bytes_per_op" "B" (per_op (sum (fun n -> n.repair_bytes) w.nodes));
    m "sync.repair_copies" "count"
      (float_of_int (sum (fun n -> n.repair_copies) w.nodes));
    m "sync.vmap_entries" "count"
      (float_of_int (sum (fun n -> n.vmap_entries) w.nodes));
  ]

(* The per-tag frame breakdown behind the wire figures. *)
let print_tags w =
  let counts = Array.make (Array.length Traced.tag_names) 0 in
  List.iter
    (fun (_, (s : Traced.snap)) ->
      Array.iteri
        (fun i _ -> counts.(i) <- counts.(i) + s.s_ints.(Traced.c_tags + i))
        counts)
    w.traced;
  Printf.printf "  frames sent by tag (base: %d ops):" w.ops;
  Array.iteri
    (fun i c -> if c > 0 then Printf.printf " %s=%d" Traced.tag_names.(i) c)
    counts;
  print_newline ()
