(* d2load: replay a synthetic Harvard-trace segment against a live
   d2d cluster and report throughput and latency percentiles.

   Ops map onto the block protocol directly: Create/Write put the
   block, Read gets it back and verifies the payload (a block the
   trace reads before any write is first seeded with a put), Delete
   removes the file's first block.  Every get is checked against what
   this process stored, so a non-zero exit means real data loss, not
   just noise.

   The replay is pipelined: a window of [--in-flight] operations stays
   open on one persistent connection per node, requests correlated by
   id and coalesced into shared transport writes.  Two ops on the same
   key never overlap (the issuer stalls on a read-after-write hazard),
   so verification stays exact at any depth.  [--sweep] replays the
   workload at several depths and prints the saturation curve;
   [--min-ops-s] turns the best depth's throughput into an exit-code
   floor for CI. *)

open Cmdliner
module T = D2_net.Transport_unix
module Client = D2_net.Client.Make (D2_net.Transport_unix)
module Bootstrap = D2_net.Bootstrap
module Key = D2_keyspace.Key
module Rng = D2_util.Rng
module Stats = D2_util.Stats
module Op = D2_trace.Op
module Harvard = D2_trace.Harvard
module Keymap = D2_trace.Keymap

let payload_of key bytes =
  let n = max 1 (min bytes D2_net.Wire.max_payload) in
  let tag = Key.to_string key in
  let tl = String.length tag in
  let b = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    let k = min tl (n - !off) in
    Bytes.blit_string tag 0 b !off k;
    off := !off + k
  done;
  Bytes.unsafe_to_string b

type run_stats = {
  window : int;
  run_ops : int;
  elapsed : float;
  lats : float array; (* sorted, seconds *)
}

let ops_s r = if r.elapsed > 0.0 then float_of_int r.run_ops /. r.elapsed else 0.0
let lat_ms r p = 1000.0 *. Stats.percentile r.lats p

(* One timed replay at pipeline depth [window].  Ops issue while the
   window has room; an op whose key is already in flight queues behind
   that key (same-key ops must not overlap or read verification races
   the write) and issues from the predecessor's completion, so a run
   of hot-key ops never stalls the rest of the pipeline.  Between
   issue bursts the client polls, flushing the coalesced batch and
   delivering replies.  Returns once the deadline passed and every
   issued and queued op concluded. *)
let replay client trace keymap stored ~window ~duration ~ops_limit ~failed
    ~verify_errors =
  let n_ops = Array.length trace.Op.ops in
  (* keys with an op currently issued *)
  let active : unit Key.Table.t = Key.Table.create (4 * window) in
  (* key -> ops waiting for the in-flight op on that key *)
  let blocked : Op.op Queue.t Key.Table.t = Key.Table.create (4 * window) in
  let lat = ref (Array.make 4096 0.0) in
  let done_ops = ref 0 and outstanding = ref 0 in
  let lookahead = max (4 * window) 64 in
  let t_start = Unix.gettimeofday () in
  let deadline = t_start +. duration in
  let stop_issuing = ref false in
  let i = ref 0 in
  let record t0 =
    if !done_ops = Array.length !lat then begin
      let b = Array.make (2 * !done_ops) 0.0 in
      Array.blit !lat 0 b 0 !done_ops;
      lat := b
    end;
    !lat.(!done_ops) <- Unix.gettimeofday () -. t0;
    incr done_ops
  in
  (* Issue one trace op against a key that is NOT currently in flight.
     Completion pops the key's queue and issues the successor, keeping
     per-key order exact. *)
  let rec issue (op : Op.op) key =
    Key.Table.replace active key ();
    let t0 = Unix.gettimeofday () in
    let finish () =
      record t0;
      decr outstanding;
      match Key.Table.find_opt blocked key with
      | None -> Key.Table.remove active key
      | Some q ->
          let next = Queue.pop q in
          if Queue.is_empty q then Key.Table.remove blocked key;
          issue next key
    in
    let put_block data =
      Client.put_async client ~key ~data (fun r ->
          (match r with
          | `Ok _ -> Key.Table.replace stored key data
          | `Failed -> incr failed);
          finish ())
    in
    match op.Op.kind with
    | Op.Write | Op.Create -> put_block (payload_of key op.Op.bytes)
    | Op.Read -> (
        match Key.Table.find_opt stored key with
        | None -> put_block (payload_of key op.Op.bytes)
        | Some expect ->
            Client.get_async client ~key (fun r ->
                (match r with
                | `Found data ->
                    if not (String.equal data expect) then incr verify_errors
                | `Missing -> incr verify_errors
                | `Failed -> incr failed);
                finish ()))
    | Op.Delete ->
        Client.remove_async client ~key (fun r ->
            (match r with
            | `Ok _ -> Key.Table.remove stored key
            | `Failed -> incr failed);
            finish ())
  in
  while (not !stop_issuing) || !outstanding > 0 do
    while
      (not !stop_issuing)
      && Client.in_flight client < window
      && !outstanding < lookahead
    do
      if
        Unix.gettimeofday () >= deadline
        || (ops_limit > 0 && !i >= ops_limit)
      then stop_issuing := true
      else begin
        let op = trace.Op.ops.(!i mod n_ops) in
        incr i;
        let key = Keymap.key_of_op keymap op in
        let skip =
          (* A delete of a block we never stored is a no-op — don't
             burn a window slot on it (matches the pre-pipelined
             replay, which issued nothing for those). *)
          op.Op.kind = Op.Delete
          && (not (Key.Table.mem stored key))
          && not (Key.Table.mem active key)
        in
        if not skip then begin
          incr outstanding;
          if Key.Table.mem active key then begin
            let q =
              match Key.Table.find_opt blocked key with
              | Some q -> q
              | None ->
                  let q = Queue.create () in
                  Key.Table.replace blocked key q;
                  q
            in
            Queue.push op q
          end
          else issue op key
        end
      end
    done;
    Client.poll client ~timeout:0.001
  done;
  let elapsed = Unix.gettimeofday () -. t_start in
  let lats = Array.sub !lat 0 !done_ops in
  Array.sort compare lats;
  { window; run_ops = !done_ops; elapsed; lats }

(* Replaying is deterministic per key (the hazard queue serializes
   same-key ops in trace order), so the final stored table of a clean
   [--ops N] run is a pure function of (trace, N): fold the first N
   considered ops — Write/Create bind the payload, a Read of an
   unbound key seeds it (the replay's seed-put), Delete unbinds.  A
   fresh process can therefore recompute what an earlier run stored
   and check every block survived — this is the crash-recovery
   acceptance check, run against daemons that were killed and
   restarted in between. *)
let expected_table trace keymap ~ops_limit =
  let n = Array.length trace.Op.ops in
  let expected : string Key.Table.t = Key.Table.create 4096 in
  for j = 0 to ops_limit - 1 do
    let op = trace.Op.ops.(j mod n) in
    let key = Keymap.key_of_op keymap op in
    match op.Op.kind with
    | Op.Write | Op.Create ->
        Key.Table.replace expected key (payload_of key op.Op.bytes)
    | Op.Read ->
        if not (Key.Table.mem expected key) then
          Key.Table.replace expected key (payload_of key op.Op.bytes)
    | Op.Delete -> Key.Table.remove expected key
  done;
  expected

let verify client trace keymap ~ops_limit ~window =
  let expected = expected_table trace keymap ~ops_limit in
  let total = Key.Table.length expected in
  let missing = ref 0 and mismatched = ref 0 and failed = ref 0 in
  let outstanding = ref 0 in
  Key.Table.iter
    (fun key expect ->
      while Client.in_flight client >= window do
        Client.poll client ~timeout:0.001
      done;
      incr outstanding;
      Client.get_async client ~key (fun r ->
          (match r with
          | `Found data ->
              if not (String.equal data expect) then incr mismatched
          | `Missing -> incr missing
          | `Failed -> incr failed);
          decr outstanding))
    expected;
  while !outstanding > 0 do
    Client.poll client ~timeout:0.001
  done;
  Printf.printf
    "d2load: verified %d expected blocks: %d missing, %d mismatched, %d \
     failed\n%!"
    total !missing !mismatched !failed;
  !missing = 0 && !mismatched = 0 && !failed = 0 && total > 0

let run nodes port_base replicas quorum_r quorum_w duration users target_mb
    seed rpc_timeout inflight alpha sweep min_ops_s ops_limit verify_seed
    volume =
  if alpha < 1 then (
    Printf.eprintf "d2load: --alpha must be >= 1\n";
    exit 2);
  if inflight < 1 then (
    Printf.eprintf "d2load: --in-flight must be >= 1\n";
    exit 2);
  if nodes < 1 then (
    Printf.eprintf "d2load: --nodes must be >= 1\n";
    exit 2);
  if not (rpc_timeout > 0.0) then (
    Printf.eprintf "d2load: --rpc-timeout must be > 0\n";
    exit 2);
  if not (duration > 0.0) then (
    Printf.eprintf "d2load: --duration must be > 0\n";
    exit 2);
  if quorum_r < 1 || quorum_r > replicas || quorum_w < 1 || quorum_w > replicas
  then (
    Printf.eprintf "d2load: quorums must be in [1, --replicas]\n";
    exit 2);
  (* Block payloads (~8 KB) exceed the minor-allocation cutoff and
     land on the major heap; at 100k ops/s the default pacing spends a
     measurable slice of every cycle in major collections.  Trade
     memory for mutator time — this is a load generator. *)
  Gc.set
    {
      (Gc.get ()) with
      Gc.minor_heap_size = 4 * 1024 * 1024;
      space_overhead = 400;
    };
  let windows =
    match sweep with
    | [] -> [ inflight ]
    | ws -> List.filter (fun w -> w >= 1) ws
  in
  if windows = [] then (
    Printf.eprintf "d2load: --sweep needs at least one depth >= 1\n";
    exit 2);
  let ep =
    T.create
      ~node:(Bootstrap.client_handle 0)
      ~addr_of:(T.loopback ~port_base ~n:nodes)
      ~listen:false ()
  in
  let client =
    Client.create ep ~replicas ~quorum_r ~quorum_w ~rpc_timeout ~alpha
      ~seeds:(List.init nodes Fun.id)
      ()
  in
  let params =
    {
      Harvard.default_params with
      users;
      days = 1.0;
      target_bytes = target_mb * 1024 * 1024;
    }
  in
  let trace_seed = match verify_seed with Some s -> s | None -> seed in
  let trace = Harvard.generate ~rng:(Rng.create trace_seed) ~params () in
  if Array.length trace.Op.ops = 0 then (
    Printf.eprintf "d2load: empty trace\n";
    exit 2);
  let keymap = Keymap.create Keymap.D2 ~volume in
  (match verify_seed with
  | Some _ ->
      if ops_limit <= 0 then begin
        Printf.eprintf "d2load: --verify-seed needs --ops\n";
        exit 2
      end;
      let ok = verify client trace keymap ~ops_limit ~window:inflight in
      T.shutdown ep;
      exit (if ok then 0 else 1)
  | None -> ());
  let stored : string Key.Table.t = Key.Table.create 4096 in
  let failed = ref 0 and verify_errors = ref 0 in
  let runs =
    List.map
      (fun window ->
        replay client trace keymap stored ~window ~duration ~ops_limit ~failed
          ~verify_errors)
      windows
  in
  T.shutdown ep;
  let best =
    List.fold_left (fun a r -> if ops_s r > ops_s a then r else a)
      (List.hd runs) runs
  in
  let total_ops = List.fold_left (fun a r -> a + r.run_ops) 0 runs in
  Printf.printf "d2load: %d ops against %d nodes (%.2f s per depth)\n"
    total_ops nodes duration;
  if List.length runs > 1 then begin
    Printf.printf "  saturation curve:\n";
    Printf.printf "  %-10s %-10s %-8s %-8s %-8s\n" "in-flight" "ops/s" "p50ms"
      "p95ms" "p99ms";
    List.iter
      (fun r ->
        Printf.printf "  %-10d %-10.0f %-8.2f %-8.2f %-8.2f\n" r.window
          (ops_s r) (lat_ms r 50.0) (lat_ms r 95.0) (lat_ms r 99.0))
      runs
  end;
  Printf.printf
    "  best: %.0f ops/s at in-flight=%d (p50=%.2f p95=%.2f p99=%.2f ms)\n"
    (ops_s best) best.window (lat_ms best 50.0) (lat_ms best 95.0)
    (lat_ms best 99.0);
  let cache = Client.cache client in
  Printf.printf "  lookups: %d rpcs, cache %d hits / %d misses\n"
    (Client.lookup_rpcs client)
    (D2_cache.Lookup_cache.hits cache)
    (D2_cache.Lookup_cache.misses cache);
  Printf.printf "  failed ops: %d, verify errors: %d\n%!" !failed !verify_errors;
  if !failed > 0 || !verify_errors > 0 then exit 1;
  if min_ops_s > 0.0 && ops_s best < min_ops_s then begin
    Printf.eprintf "d2load: best %.0f ops/s is below the %.0f ops/s floor\n"
      (ops_s best) min_ops_s;
    exit 1
  end

let nodes_term =
  Arg.(value & opt int 3 & info [ "nodes" ] ~docv:"M" ~doc:"Cluster size.")

let port_base_term =
  Arg.(
    value & opt int 7000
    & info [ "port-base" ] ~env:(Cmd.Env.info "D2_NET_PORT_BASE") ~docv:"PORT"
        ~doc:"Node $(i,i) of the cluster is at 127.0.0.1:PORT+$(i,i).")

let replicas_term =
  Arg.(
    value & opt int 3
    & info [ "replicas" ] ~docv:"R" ~doc:"Fan-out depth requested on puts.")

let quorum_r_term =
  Arg.(
    value & opt int 1
    & info [ "quorum-r" ] ~env:(Cmd.Env.info "D2_QUORUM_R") ~docv:"Q"
        ~doc:"Read quorum: at 2+ every get consults Q replicas through the \
              owner and returns the version-dominating copy, read-repairing \
              stale replicas.")

let quorum_w_term =
  Arg.(
    value & opt int 1
    & info [ "quorum-w" ] ~env:(Cmd.Env.info "D2_QUORUM_W") ~docv:"Q"
        ~doc:"Write quorum: a put acked by fewer than Q replicas counts as \
              failed and is retried.")

let duration_term =
  Arg.(
    value & opt float 2.0
    & info [ "duration" ] ~docv:"SECS" ~doc:"How long to replay (per depth).")

let users_term =
  Arg.(
    value & opt int 6
    & info [ "users" ] ~docv:"U" ~doc:"Synthetic-trace user count.")

let target_mb_term =
  Arg.(
    value & opt int 4
    & info [ "target-mb" ] ~docv:"MB" ~doc:"Synthetic-trace data-set size.")

let seed_term =
  Arg.(value & opt int 0xd21d & info [ "seed" ] ~docv:"SEED" ~doc:"Trace seed.")

let timeout_term =
  Arg.(
    value & opt float 1.0
    & info [ "rpc-timeout" ] ~docv:"SECS" ~doc:"Per-RPC reply deadline.")

let inflight_term =
  Arg.(
    value & opt int 16
    & info [ "in-flight" ] ~env:(Cmd.Env.info "D2_NET_INFLIGHT") ~docv:"W"
        ~doc:"Pipeline depth: operations kept in flight.")

let alpha_term =
  Arg.(
    value & opt int 1
    & info [ "alpha" ] ~env:(Cmd.Env.info "D2_ROUTE_ALPHA") ~docv:"A"
        ~doc:"Parallel-lookup width: race A iterative lookups through \
              distinct seeds on every cache miss, first owner answer \
              wins.")

let sweep_term =
  Arg.(
    value
    & opt (list int) []
    & info [ "sweep" ] ~docv:"W1,W2,..."
        ~doc:"Replay at each depth in turn and print the saturation \
              curve (overrides --in-flight).")

let min_ops_s_term =
  Arg.(
    value & opt float 0.0
    & info [ "min-ops-s" ] ~docv:"OPS"
        ~doc:"Exit non-zero unless the best depth sustains at least \
              OPS operations per second (0 = no floor).")

let ops_term =
  Arg.(
    value & opt int 0
    & info [ "ops" ] ~docv:"N"
        ~doc:"Stop after considering N trace operations (cycling the \
              trace), making the run's final stored state deterministic — \
              the prerequisite for --verify-seed.  0 = run to --duration.")

let verify_seed_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "verify-seed" ] ~docv:"SEED"
        ~doc:"Instead of replaying, recompute the final stored state of an \
              earlier $(b,--seed) SEED $(b,--ops) N run (pass the same \
              --ops, --users, --target-mb, --volume) and get-and-verify \
              every expected block.  Exits non-zero on any missing or \
              corrupt block — the crash-recovery check.")

let volume_term =
  Arg.(
    value & opt string "/d2load"
    & info [ "volume" ] ~docv:"PATH"
        ~doc:"Keymap volume prefix.  Distinct volumes give disjoint key \
              sets, so an interfering load (e.g. one run only to be \
              killed) can target its own namespace.")

let cmd =
  let doc = "replay a synthetic workload against a live d2d cluster" in
  Cmd.v
    (Cmd.info "d2load" ~doc)
    Term.(
      const run $ nodes_term $ port_base_term $ replicas_term $ quorum_r_term
      $ quorum_w_term $ duration_term $ users_term $ target_mb_term $ seed_term
      $ timeout_term $ inflight_term $ alpha_term $ sweep_term $ min_ops_s_term
      $ ops_term $ verify_seed_term $ volume_term)

let () = exit (Cmd.eval cmd)
