(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (via d2_experiments) and then runs Bechamel
   micro-benchmarks of the core data-structure operations.

   Scale is controlled by D2_SCALE (paper | quick; default paper) and
   parallelism by D2_JOBS (worker domains, a positive integer; default
   recommended_domain_count - 1).  A malformed value of either is a
   usage error (exit 2) before anything runs.  Experiments run
   concurrently but print deterministically in registry order.

   Usage: dune exec bench/main.exe -- [ids...] [--no-micro] [--json FILE]
     ids         run a subset, e.g. `fig9 fig13` (default: everything)
     --no-micro  skip the Bechamel micro-benchmarks
     --json FILE machine-readable results path (default BENCH_results.json)

   Every run writes a JSON results file (per-experiment wall seconds,
   micro ns/op, scale, job count) so later PRs can compare perf. *)

module Config = D2_experiments.Config
module Registry = D2_experiments.Registry
module Key = D2_keyspace.Key
module Encoding = D2_keyspace.Encoding
module Ring = D2_dht.Ring
module Router = D2_dht.Router
module Rng = D2_util.Rng
module Pool = D2_util.Pool
module Gc_tune = D2_util.Gc_tune
module Lookup_cache = D2_cache.Lookup_cache
module Range_arena = D2_cache.Range_arena
module Zipf = D2_util.Zipf
module Op = D2_trace.Op
module Plan = D2_trace.Plan
module Keymap = D2_trace.Keymap
module Failure = D2_trace.Failure
module Engine = D2_simnet.Engine
module Cluster = D2_store.Cluster
module Availability = D2_core.Availability

let run_experiments scale ids ~jobs =
  let entries =
    match ids with
    | [] -> Registry.all
    | ids ->
        List.filter_map
          (fun id ->
            match Registry.find id with
            | Some e -> Some e
            | None ->
                Printf.eprintf "unknown experiment id %S (see `d2ctl list`)\n%!" id;
                None)
          ids
  in
  Printf.printf "== D2 evaluation reproduction (scale: %s, jobs: %d) ==\n\n%!"
    (Config.scale_name scale) jobs;
  let outcomes = Registry.run_entries ~jobs scale entries in
  List.iter Registry.print_outcome outcomes;
  outcomes

(* {1 Bechamel micro-benchmarks} *)

(* Small synthetic trace for the Plan micro-benchmarks: enough ops to
   exercise the path-interning and key-derivation loops, small enough
   that one compile is microseconds. *)
let micro_trace =
  lazy
    (let ops =
       Array.init 512 (fun i ->
           {
             Op.time = float_of_int i;
             user = i mod 4;
             path = Printf.sprintf "/f%d/b%d" (i mod 16) (i / 16);
             file = i mod 16;
             block = i / 16;
             kind = (match i land 3 with 0 -> Op.Create | 1 -> Op.Write | _ -> Op.Read);
             bytes = Op.block_size;
           })
     in
     {
       Op.name = "micro";
       duration = 600.0;
       users = 4;
       ops;
       initial_files =
         Array.init 16 (fun f ->
             {
               Op.file_id = f;
               file_path = Printf.sprintf "/f%d" f;
               file_bytes = 32 * Op.block_size;
             });
     })

let plan_tests () =
  let open Bechamel in
  let trace = Lazy.force micro_trace in
  let plan = Plan.of_trace trace in
  (* Fresh volume name per run so [replay_keys] measures actual key
     derivation, not a memo-table hit. *)
  let vol = ref 0 in
  [
    Test.make ~name:"plan_compile" (Staged.stage (fun () ->
        ignore (Plan.compile trace)));
    Test.make ~name:"plan_replay_keys" (Staged.stage (fun () ->
        incr vol;
        ignore
          (Plan.replay_keys plan
             ~volume:(Printf.sprintf "micro@%d" !vol)
             ~mode:Keymap.D2 ~policy:Plan.Reads_and_writes)));
  ]

(* Store / availability macro-micros: each run is one full simulated
   scenario (small enough for the quick quota) over the block-arena
   cluster store and timer-wheel engine, so their numbers track the
   hot paths the tentpole optimized. *)

(* One failure + regeneration + recovery + trim cycle on a 40-node,
   512-block cluster, draining the engine between phases.  The cluster
   persists across iterations (each cycle returns it to its steady
   replica placement), rotating which node fails. *)
let cluster_fail_recover_test () =
  let open Bechamel in
  let rng = Rng.create 7 in
  let engine = Engine.create () in
  let ids = Array.init 40 (fun _ -> Key.random rng) in
  let cluster = Cluster.create ~engine ~config:Cluster.default_config ~ids in
  for _ = 1 to 512 do
    Cluster.put cluster ~key:(Key.random rng) ~size:8192 ()
  done;
  let node = ref 0 in
  Test.make ~name:"cluster_fail_recover" (Staged.stage (fun () ->
      let n = !node in
      node := (n + 1) mod 40;
      Cluster.fail cluster ~node:n;
      Engine.run engine;
      Cluster.recover cluster ~node:n;
      Engine.run engine))

(* A full availability replay of a ~1k-op synthetic trace with a
   24-node failure schedule (no balancer, short warmup: the replay
   loop, cluster reconciliation and wheel-driven transfers dominate). *)
let availability_replay_1k_test () =
  let open Bechamel in
  let ops =
    Array.init 1024 (fun i ->
        {
          Op.time = float_of_int i *. 60.0;
          user = i mod 4;
          path = Printf.sprintf "/f%d/b%d" (i mod 16) ((i / 16) mod 32);
          file = i mod 16;
          block = (i / 16) mod 32;
          kind = (match i land 3 with 0 -> Op.Create | 1 -> Op.Write | _ -> Op.Read);
          bytes = Op.block_size;
        })
  in
  let trace =
    {
      Op.name = "avail_micro";
      duration = (1024.0 *. 60.0) +. 600.0;
      users = 4;
      ops;
      initial_files =
        Array.init 16 (fun f ->
            {
              Op.file_id = f;
              file_path = Printf.sprintf "/f%d" f;
              file_bytes = 32 * Op.block_size;
            });
    }
  in
  let failures =
    Failure.generate ~rng:(Rng.create 777) ~n:24 ~duration:(trace.Op.duration +. 600.0) ()
  in
  let params =
    {
      Availability.replicas = 3;
      redundancy = Cluster.Replication;
      warmup = 600.0;
      use_balancer = false;
      regen_hours_per_node = 3.0;
      hybrid_replicas = false;
    }
  in
  Test.make ~name:"availability_replay_1k" (Staged.stage (fun () ->
      ignore
        (Availability.replay ~trace ~failures ~mode:Keymap.D2 ~seed:11 ~params ())))

(* Fine-grained micros run a batch of [micro_batch] operations per
   staged call and the harness divides the OLS estimate by that count.
   One-op-per-run sampling mislabeled batch effects as per-op cost:
   each sample then carries the fixed harness overhead and — after the
   experiment suite has grown the major heap — a GC slice, which is
   how a 64-byte [Key.compare] was reported at 3,782 ns/op when a
   counted loop measures ~9 ns.  Batching amortizes both, so the
   reported number is the true marginal cost. *)
let micro_batch = 1024

(* Wire-codec throughput: encode a batch of representative frames
   (lookup / owner / 256 B put / ack) into one reused output buffer,
   then drain it — the coalescing path a link's sends take. *)
let net_frame_encode_test () =
  let open Bechamel in
  let module Bytebuf = D2_net.Transport.Bytebuf in
  let rng = Rng.create 0xd2f in
  let keys = Array.init 64 (fun _ -> Key.random rng) in
  let payload = D2_util.Slice.of_string (String.make 256 'x') in
  let out = Bytebuf.create () in
  let msgs =
    Array.init micro_batch (fun i ->
        match i land 3 with
        | 0 -> D2_net.Wire.Lookup { key = keys.(i land 63) }
        | 1 ->
            D2_net.Wire.Owner
              { node = i; lo = keys.(i land 63); hi = keys.((i + 1) land 63) }
        | 2 ->
            D2_net.Wire.Put
              {
                key = keys.(i land 63);
                depth = 2;
                version = D2_sync.Version.zero;
                data = payload;
              }
        | _ -> D2_net.Wire.Put_ack { copies = 3 })
  in
  Test.make ~name:"net_frame_encode" (Staged.stage (fun () ->
      let acc = ref 0 in
      for i = 0 to micro_batch - 1 do
        acc := !acc + D2_net.Wire.write out ~req:i msgs.(i)
      done;
      Bytebuf.consume out (Bytebuf.length out);
      ignore (Sys.opaque_identity !acc)))

(* The 3-node in-process cluster the RPC micros drive (probes rare,
   repair off), and a client on it with read quorum [quorum_r]. *)
let micro_client ?quorum_r () =
  let module World = D2_net.Mem_world in
  let w =
    World.boot ~n:3
      ~config:
        {
          D2_net.Node.replicas = 3;
          probe_interval = 60.0;
          rpc_timeout = 5.0;
          repair_interval = 0.0;
        }
      ()
  in
  World.Client.create (World.endpoint w) ~replicas:3 ?quorum_r
    ~rpc_timeout:5.0 ~seeds:[ 0; 1; 2 ] ()

(* One replicated put + one get through the full protocol stack
   (client cache, linkset, wire codec, node runtime) over the
   in-process transport on a 3-node virtual cluster. *)
let net_mem_rpc_test () =
  let open Bechamel in
  let module Client = D2_net.Mem_world.Client in
  let client = micro_client () in
  let krng = Rng.create 0x6b in
  let keys = Array.init 64 (fun _ -> Key.random krng) in
  let data = String.make 256 'd' in
  let idx = ref 0 in
  Test.make ~name:"net_mem_rpc" (Staged.stage (fun () ->
      let key = keys.(!idx land 63) in
      incr idx;
      (match Client.put client ~key ~data with
      | `Ok _ -> ()
      | `Failed -> failwith "net_mem_rpc: put failed");
      match Client.get client ~key with
      | `Found _ -> ()
      | `Missing | `Failed -> failwith "net_mem_rpc: get failed"))

(* A version map of [n] random keys, each stamped once. *)
let filled_vmap n =
  let module Vmap = D2_sync.Vmap in
  let vmap = Vmap.create () in
  let krng = Rng.create 0xd16 in
  let keys = Array.init n (fun _ -> Key.random krng) in
  Array.iteri
    (fun i key ->
      ignore
        (Vmap.write vmap ~key ~node:(i land 31) ~now:0.0
           ~data:(Some (D2_util.Slice.of_string ""))))
    keys;
  (vmap, keys)

(* Root-level digest build over a 4096-entry version map: one full
   CRC-32C fold into 16 buckets, what a range's first probe costs. *)
let digest_build_4k_test () =
  let open Bechamel in
  let module Vmap = D2_sync.Vmap in
  let module Digest = D2_sync.Digest in
  let vmap, _ = filled_vmap 4096 in
  Test.make ~name:"digest_build_4k" (Staged.stage (fun () ->
      let children =
        Digest.children ~iter:(fun f -> Vmap.iter vmap f) ~prefix:0 ~bits:0
      in
      ignore (Sys.opaque_identity children)))

(* A root probe of a range the map already keeps summed: what every
   later probe costs, whatever the key count.  The map is built when
   this micro starts and dropped when it ends, so the large one does
   not weigh on the other micros' heap. *)
let digest_probe_test ~name n =
  let open Bechamel in
  let module Vmap = D2_sync.Vmap in
  let probe vmap = Vmap.children vmap ~lo:Key.zero ~hi:Key.zero ~prefix:0 ~bits:0 in
  Test.make_with_resource ~name Test.uniq
    ~allocate:(fun () ->
      let vmap, _ = filled_vmap n in
      ignore (probe vmap);
      vmap)
    ~free:ignore
    (Staged.stage (fun vmap -> ignore (Sys.opaque_identity (probe vmap))))

(* Entry lookups in a 16k-key map, a batch of [micro_batch] per run:
   the partition lock plus one hash-table probe. *)
let vmap_find_16k_test () =
  let open Bechamel in
  let module Vmap = D2_sync.Vmap in
  Test.make_with_resource ~name:"vmap_find_16k" Test.uniq
    ~allocate:(fun () -> filled_vmap 16384)
    ~free:ignore
    (Staged.stage (fun (vmap, keys) ->
         for i = 0 to micro_batch - 1 do
           ignore (Sys.opaque_identity (Vmap.find vmap ~key:keys.(i * 16)))
         done))

(* One quorum-2 get through the full stack on a 3-node cluster: the
   owner pulls from a replica (a version-only answer when their copies
   agree) before answering from its own entry, so this gates the Get_q
   path net_mem_rpc never takes. *)
let quorum_get_test () =
  let open Bechamel in
  let module Client = D2_net.Mem_world.Client in
  let client = micro_client ~quorum_r:2 () in
  let krng = Rng.create 0x9b in
  let keys = Array.init 64 (fun _ -> Key.random krng) in
  let data = String.make 256 'q' in
  Array.iter
    (fun key ->
      match Client.put client ~key ~data with
      | `Ok _ -> ()
      | `Failed -> failwith "quorum_get: seed put failed")
    keys;
  let idx = ref 0 in
  Test.make ~name:"quorum_get" (Staged.stage (fun () ->
      let key = keys.(!idx land 63) in
      incr idx;
      match Client.get client ~key with
      | `Found _ -> ()
      | `Missing | `Failed -> failwith "quorum_get: get failed"))

(* Write coalescing: queue windows of 16 frames on one link and flush
   each window as a single transport send, then drain the virtual
   network so the receive side pays reassembly and dispatch too.
   Gates the per-frame cost of the pipelined output path. *)
let coalesce_window = 16

let net_write_coalesce_test () =
  let open Bechamel in
  let module Mem = D2_net.Transport_mem in
  let module L = D2_net.Linkset.Make (D2_net.Transport_mem) in
  let engine = Engine.create () in
  let topology = D2_simnet.Topology.create ~rng:(Rng.create 0x77c) ~n:2 () in
  let net = Mem.create_net ~engine ~topology ~loss:0.0 ~seed:0x3 () in
  let a = Mem.endpoint net ~node:0 in
  let b = Mem.endpoint net ~node:1 in
  let la = L.create a in
  let lb = L.create b in
  Mem.on_accept b (fun conn -> ignore (L.attach lb conn));
  let link =
    match L.link_to la 1 with
    | Some l -> l
    | None -> failwith "net_write_coalesce: connect failed"
  in
  let msg = D2_net.Wire.Probe_ack { node = 7; epoch = 1 } in
  Test.make ~name:"net_write_coalesce" (Staged.stage (fun () ->
      for w = 0 to (micro_batch / coalesce_window) - 1 do
        for i = 0 to coalesce_window - 1 do
          L.reply link ~req:((w * coalesce_window) + i) msg
        done;
        L.flush_all la
      done;
      (* Deliver everything queued this run: the replies land on [lb]
         with no pending entry and are dropped after decode. *)
      L.poll la ~timeout:2.0))

(* A full window of pipelined gets through the client stack (range
   cache, request-id correlation, coalesced flush) on the in-process
   3-node cluster — the mem-transport twin of d2load's replay loop at
   in-flight = 16. *)
let pipeline_window = 16

let net_pipelined_rpc_test () =
  let open Bechamel in
  let module Client = D2_net.Mem_world.Client in
  let client = micro_client () in
  let krng = Rng.create 0x6c in
  let keys = Array.init 64 (fun _ -> Key.random krng) in
  let data = String.make 256 'p' in
  Array.iter
    (fun key ->
      match Client.put client ~key ~data with
      | `Ok _ -> ()
      | `Failed -> failwith "net_pipelined_rpc: preload put failed")
    keys;
  let idx = ref 0 in
  Test.make ~name:"net_pipelined_rpc" (Staged.stage (fun () ->
      let completed = ref 0 in
      for _ = 1 to pipeline_window do
        let key = keys.(!idx land 63) in
        incr idx;
        Client.get_async client ~key (function
          | `Found _ -> incr completed
          | `Missing | `Failed -> failwith "net_pipelined_rpc: get failed")
      done;
      while !completed < pipeline_window do
        Client.poll client ~timeout:0.01
      done))

(* {2 Fleet micros}

   [fleet_cache_probe] is the d2fleet hot kernel in isolation: 256
   clients share one range arena, each probing mostly its home range
   with a cross-range jump every 16th op — the hit-dominated d2
   locality regime, measured warm.  [fleet_step] is the end-to-end
   per-op cost: wheel fire, zipf draw, arena probe, re-arm — a fresh
   engine per staged run firing exactly [micro_batch] cells. *)

let fleet_clients = 256
let fleet_ranges = 64

let fleet_arena () =
  let arena =
    Range_arena.create ~ways:8 ~shards:1 ~clients:fleet_clients ()
  in
  Range_arena.set_ranges arena
    ~bounds:(Array.init fleet_ranges (fun i -> 128 * (i + 1)))
    ~owners:(Array.init fleet_ranges Fun.id);
  arena

(* Ticks are shared across staged runs (slots stay warm); wrap far
   below the arena's 28-bit limit. *)
let fleet_tick t =
  let n = if !t >= Range_arena.max_tick then 1 else !t + 1 in
  t := n;
  n

let fleet_cache_probe_test () =
  let open Bechamel in
  let arena = fleet_arena () in
  let prng = Rng.create 23 in
  let cli = Array.make micro_batch 0 in
  let pos = Array.make micro_batch 0 in
  for i = 0 to micro_batch - 1 do
    let c = i land (fleet_clients - 1) in
    let home = c land (fleet_ranges - 1) in
    let r = if i land 15 = 0 then Rng.int prng fleet_ranges else home in
    cli.(i) <- c;
    pos.(i) <- (128 * r) + 1 + (2 * Rng.int prng 63)
  done;
  let tick = ref 0 in
  let acc = ref 0 in
  for i = 0 to micro_batch - 1 do
    (* warm the slots: the measured loop is the steady state *)
    ignore
      (Range_arena.probe arena ~shard:0 ~cls:0 ~client:cli.(i) ~pos:pos.(i)
         ~tick:(fleet_tick tick) ~cap:8)
  done;
  Test.make ~name:"fleet_cache_probe"
    (Staged.stage (fun () ->
         for i = 0 to micro_batch - 1 do
           acc :=
             !acc
             + Range_arena.probe arena ~shard:0 ~cls:0 ~client:cli.(i)
                 ~pos:pos.(i) ~tick:(fleet_tick tick) ~cap:8
         done))

let fleet_step_test () =
  let open Bechamel in
  let arena = fleet_arena () in
  let zipf = Zipf.create ~n:fleet_ranges ~s:0.9 in
  let tick = ref 0 in
  let acc = ref 0 in
  Test.make ~name:"fleet_step"
    (Staged.stage (fun () ->
         let eng = Engine.create ~granularity:0.08 () in
         let rng = Rng.create 31 in
         let fired = ref 0 in
         let handler = ref (fun (_ : int) (_ : int) -> ()) in
         let sink =
           Engine.register_sink eng (fun tag payload -> !handler tag payload)
         in
         handler :=
           (fun _ client ->
             incr fired;
             let r = Zipf.sample zipf rng in
             let pos = (128 * r) + 1 + (2 * (client land 63)) in
             acc :=
               !acc
               + Range_arena.probe arena ~shard:0 ~cls:0 ~client ~pos
                   ~tick:(fleet_tick tick) ~cap:8;
             if !fired <= micro_batch - fleet_clients then
               Engine.post_in eng ~sink
                 ~delay:(Rng.exponential rng ~mean:5.0)
                 ~tag:0 ~payload:client);
         for c = 0 to fleet_clients - 1 do
           Engine.post_in eng ~sink ~delay:(Rng.float rng 5.0) ~tag:0
             ~payload:c
         done;
         (* exactly [micro_batch] fires: the initial cells plus one
            re-arm per fire up to the quota *)
         Engine.run eng))

(* {2 Segment-store micros}

   The durable-store kernels: buffered append + group commit, the
   out-of-core read (pread, cache off), the cache-hit read, recovery's
   log replay, and compaction's relocation of live records.  Stores
   live on tmpfs when the machine has one so the numbers gate the
   store's own code path, not the CI runner's disk (the smoke test
   measures real devices end-to-end). *)

module Seg_store = D2_segstore.Store

let bench_store_root =
  lazy
    (let base =
       let shm = "/dev/shm" in
       try
         if Sys.is_directory shm then shm else Filename.get_temp_dir_name ()
       with Sys_error _ -> Filename.get_temp_dir_name ()
     in
     let root =
       Filename.concat base (Printf.sprintf "d2-bench-store-%d" (Unix.getpid ()))
     in
     let rec rm_rf path =
       match Unix.lstat path with
       | { Unix.st_kind = Unix.S_DIR; _ } ->
           Array.iter
             (fun e -> rm_rf (Filename.concat path e))
             (Sys.readdir path);
           Unix.rmdir path
       | _ -> Unix.unlink path
       | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
     in
     rm_rf root;
     at_exit (fun () -> rm_rf root);
     root)

let bench_store_dir name =
  Filename.concat (Lazy.force bench_store_root) name

(* The store writes slices; the micros write whole strings. *)
let store_put st ~key ~data =
  Seg_store.put st ~key ~data:(D2_util.Slice.of_string data)

(* Wire-realistic keys (the trace keymap produces well-spread digests;
   a counter-in-ASCII key would defeat [Key.hash]'s designed blind
   spots and benchmark a collision chain instead of the store). *)
let store_keys =
  lazy
    (let rng = Rng.create 0x5705 in
     Array.init micro_batch (fun _ -> Key.random rng))

let store_append_batch_test () =
  let open Bechamel in
  let config = { Seg_store.default_config with cache_bytes = 0 } in
  let st = Seg_store.create ~dir:(bench_store_dir "append") ~config () in
  let keys = Lazy.force store_keys in
  let data = String.make 256 'a' in
  Test.make ~name:"store_append_batch" (Staged.stage (fun () ->
      for i = 0 to micro_batch - 1 do
        ignore (store_put st ~key:keys.(i) ~data)
      done;
      (* One group commit covers the whole batch: the amortized
         fdatasync is part of the per-op cost being gated. *)
      Seg_store.flush st))

let store_read_test ~name ~cache_bytes =
  let open Bechamel in
  let config = { Seg_store.default_config with cache_bytes } in
  let st = Seg_store.create ~dir:(bench_store_dir name) ~config () in
  let keys = Lazy.force store_keys in
  let data = String.make 256 'r' in
  for i = 0 to micro_batch - 1 do
    ignore (store_put st ~key:keys.(i) ~data)
  done;
  Seg_store.flush st;
  (* Prime the cache (a no-op when it is disabled). *)
  for i = 0 to micro_batch - 1 do
    ignore (Seg_store.get st ~key:keys.(i))
  done;
  Test.make ~name (Staged.stage (fun () ->
      for i = 0 to micro_batch - 1 do
        match Seg_store.get st ~key:keys.(i) with
        | Some _ -> ()
        | None -> failwith (name ^ ": lost a block")
      done))

(* Per-put cost of 8 KB writes into a store with the default 64 MB
   cache, as a serving node's puts arrive: each run writes the next
   batch of a key pool nine batches long, so every put overwrites a
   key and 72 MB of live blocks exceed the cache, and flushes once.
   A segment holds exactly one batch, so the batch that rewrites its
   keys leaves it wholly dead, and [maybe_compact] (the serving loop's
   call) only unlinks it: the files stay bounded at the live set
   however many runs the quota takes. *)
let store_put_8k_test () =
  let open Bechamel in
  let data = String.make 8192 'w' in
  let config =
    {
      Seg_store.default_config with
      fsync = Seg_store.Never;
      segment_bytes =
        micro_batch
        * D2_segstore.Record.encoded_len ~data_len:(String.length data);
    }
  in
  let st = Seg_store.create ~dir:(bench_store_dir "put-8k") ~config () in
  let rng = Rng.create 0x8c8c in
  let pool = Array.init (9 * micro_batch) (fun _ -> Key.random rng) in
  let next = ref 0 in
  let batch () =
    for i = 0 to micro_batch - 1 do
      ignore (store_put st ~key:pool.(!next + i) ~data)
    done;
    next := (!next + micro_batch) mod Array.length pool;
    Seg_store.flush st;
    ignore (Seg_store.maybe_compact st)
  in
  for _ = 1 to 9 do
    batch ()
  done;
  Test.make ~name:"store_put_8k" (Staged.stage batch)

(* Per-record replay cost: a log with no usable checkpoint is recovered
   from scratch each run (the reopen's own checkpoint is deleted after
   closing, so every iteration pays the full scan + index rebuild). *)
let store_recovery_records = 4096

let store_recovery_replay_test () =
  let open Bechamel in
  let dir = bench_store_dir "recovery" in
  let config = { Seg_store.default_config with cache_bytes = 0 } in
  let st = Seg_store.create ~dir ~config () in
  let rng = Rng.create 0x4ec0 in
  let data = String.make 256 'v' in
  for _ = 1 to store_recovery_records do
    ignore (store_put st ~key:(Key.random rng) ~data)
  done;
  Seg_store.flush st;
  Seg_store.crash st;
  let ckpt = Filename.concat dir "index.ckpt" in
  Test.make ~name:"store_recovery_replay" (Staged.stage (fun () ->
      let st = Seg_store.create ~dir ~config () in
      (match Seg_store.recovery st with
      | Some r
        when r.Seg_store.r_replayed_records >= store_recovery_records -> ()
      | _ -> failwith "store_recovery_replay: replay skipped");
      Seg_store.crash st;
      (* Drop the reopen's checkpoint so the next run replays again. *)
      try Sys.remove ckpt with Sys_error _ -> ()))

(* Per-record relocation cost: each run links one half-live sealed
   segment — [store_compact_records] live 8 KB records among as many
   removed ones — into a fresh directory beside its checkpoint, opens
   the store, and compacts it away.  Linking (not copying) keeps the
   fixture out of the measurement; compaction only reads the victim
   and then unlinks its own link. *)
let store_compact_records = 1024

let store_compact_test () =
  let open Bechamel in
  let fixture = bench_store_dir "compact-fixture" in
  let config =
    { Seg_store.default_config with cache_bytes = 0; fsync = Seg_store.Never }
  in
  let st = Seg_store.create ~dir:fixture ~config () in
  let rng = Rng.create 0xc0c7 in
  let data = String.make 8192 'c' in
  for _ = 1 to store_compact_records do
    let dead = Key.random rng in
    ignore (store_put st ~key:(Key.random rng) ~data);
    ignore (store_put st ~key:dead ~data);
    ignore (Seg_store.remove st ~key:dead)
  done;
  Seg_store.close st;
  let files = Sys.readdir fixture in
  let run = bench_store_dir "compact-run" in
  Test.make ~name:"store_compact" (Staged.stage (fun () ->
      Unix.mkdir run 0o755;
      Array.iter
        (fun f -> Unix.link (Filename.concat fixture f) (Filename.concat run f))
        files;
      let st = Seg_store.create ~dir:run ~config () in
      if Seg_store.compact st ~force:false <> 1 then
        failwith "store_compact: the half-live segment was not collected";
      Seg_store.crash st;
      Array.iter
        (fun f -> Sys.remove (Filename.concat run f))
        (Sys.readdir run);
      Unix.rmdir run))

let micro_tests ~full () =
  let open Bechamel in
  let rng = Rng.create 99 in
  let bench_zipf = Zipf.create ~n:4096 ~s:0.9 in
  let zrng = Rng.create 17 in
  let keys = Array.init micro_batch (fun _ -> Key.random rng) in
  let ring = Ring.create () in
  for i = 0 to 999 do
    Ring.add ring ~id:(Key.random rng) ~node:i
  done;
  let router = Router.create ~ring ~policy:Router.Fingers ~rng:(Rng.copy rng) in
  let router_chord = Router.create ~ring ~policy:Router.Chord ~rng:(Rng.copy rng) in
  let router_kad = Router.create ~ring ~policy:(Router.Kademlia 2) ~rng:(Rng.copy rng) in
  let cache = Lookup_cache.create () in
  for i = 0 to 499 do
    let lo = keys.(i) and hi = keys.(i + 1) in
    if Key.compare lo hi < 0 then Lookup_cache.insert cache ~now:0.0 ~lo ~hi ~node:i
  done;
  let volume = Encoding.volume_id "bench" in
  (* D2-mode cache probe: one volume's keys share their 20-byte volume
     prefix, and a task's successive probes land in the range it just
     cached (the paper's up-to-95%-hit regime, §5). *)
  let d2_keys =
    Array.init micro_batch (fun i ->
        Encoding.of_slot_path ~volume
          ~slots:[ 1; 1 + (i / 64) ]
          ~block:(Int64.of_int (i land 63))
          ~version:0l)
  in
  let d2_cache = Lookup_cache.create () in
  for i = 0 to 15 do
    Lookup_cache.insert d2_cache ~now:0.0 ~lo:d2_keys.(i * 64)
      ~hi:d2_keys.((i * 64) + 63)
      ~node:i
  done;
  let resolved = Array.make micro_batch 0 in
  let sink = ref 0 in
  (* [`Quick]-tier tests run at every scale (a reduced set that still
     covers compare / routing / cache probe); [`Full] ones only under
     D2_SCALE=paper.  The int is the per-run op count used to
     normalize the estimate. *)
  let tiered =
    [
      (`Quick, micro_batch, Test.make ~name:"key_compare" (Staged.stage (fun () ->
           let acc = ref 0 in
           for i = 0 to micro_batch - 1 do
             acc := !acc + Key.compare keys.(i) keys.(0)
           done;
           sink := !acc)));
      (`Full, 1, Test.make ~name:"key_encode_fig4" (Staged.stage (fun () ->
           ignore
             (Encoding.of_slot_path ~volume ~slots:[ 1; 2; 3; 4 ] ~block:7L ~version:0l))));
      (`Full, 1, Test.make ~name:"key_decode_fig4" (Staged.stage (
           let k = Encoding.of_slot_path ~volume ~slots:[ 1; 2; 3; 4 ] ~block:7L ~version:0l in
           fun () -> ignore (Encoding.decode k))));
      (`Quick, micro_batch, Test.make ~name:"ring_successor_1000" (Staged.stage (fun () ->
           let acc = ref 0 in
           for i = 0 to micro_batch - 1 do
             acc := !acc + Ring.successor ring keys.(i)
           done;
           sink := !acc)));
      (`Full, micro_batch, Test.make ~name:"ring_route_hops_1000" (Staged.stage (fun () ->
           let acc = ref 0 in
           for i = 0 to micro_batch - 1 do
             acc := !acc + Ring.route_hops ring ~src:0 ~key:keys.(i)
           done;
           sink := !acc)));
      (`Quick, micro_batch, Test.make ~name:"router_route" (Staged.stage (fun () ->
           let acc = ref 0 in
           for i = 0 to micro_batch - 1 do
             acc := !acc + Router.hops router ~src:(i mod 1000) ~key:keys.(i)
           done;
           sink := !acc)));
      (`Quick, micro_batch, Test.make ~name:"router_route_chord" (Staged.stage (fun () ->
           let acc = ref 0 in
           for i = 0 to micro_batch - 1 do
             acc := !acc + Router.hops router_chord ~src:(i mod 1000) ~key:keys.(i)
           done;
           sink := !acc)));
      (`Quick, micro_batch, Test.make ~name:"router_route_kad" (Staged.stage (fun () ->
           let acc = ref 0 in
           for i = 0 to micro_batch - 1 do
             acc := !acc + Router.hops router_kad ~src:(i mod 1000) ~key:keys.(i)
           done;
           sink := !acc)));
      (`Quick, micro_batch, Test.make ~name:"route_alpha" (Staged.stage (fun () ->
           let acc = ref 0 in
           for i = 0 to micro_batch - 1 do
             let h, m = Router.route_alpha router ~src:(i mod 1000) ~key:keys.(i) ~alpha:2 in
             acc := !acc + h + m
           done;
           sink := !acc)));
      (`Full, micro_batch, Test.make ~name:"lookup_cache_probe" (Staged.stage (fun () ->
           let acc = ref 0 in
           for i = 0 to micro_batch - 1 do
             acc := !acc + Lookup_cache.find cache ~now:1.0 keys.(i)
           done;
           sink := !acc)));
      (`Quick, micro_batch, Test.make ~name:"lookup_cache_probe_d2" (Staged.stage (fun () ->
           let acc = ref 0 in
           for i = 0 to micro_batch - 1 do
             acc := !acc + Lookup_cache.find d2_cache ~now:1.0 d2_keys.(i)
           done;
           sink := !acc)));
      (`Quick, micro_batch, Test.make ~name:"cache_batch_resolve" (Staged.stage (fun () ->
           Lookup_cache.resolve_into d2_cache ~now:1.0 d2_keys resolved)));
      (`Quick, micro_batch, Test.make ~name:"zipf_sample" (Staged.stage (fun () ->
           let acc = ref 0 in
           for _ = 1 to micro_batch do
             acc := !acc + Zipf.sample bench_zipf zrng
           done;
           sink := !acc)));
      (`Quick, micro_batch, fleet_cache_probe_test ());
      (`Quick, micro_batch, fleet_step_test ());
      (`Quick, 1, cluster_fail_recover_test ());
      (`Quick, 1, availability_replay_1k_test ());
      (`Quick, micro_batch, net_frame_encode_test ());
      (* one put + one get per staged run *)
      (`Quick, 2, net_mem_rpc_test ());
      (`Quick, 1, digest_build_4k_test ());
      (`Quick, 1, digest_probe_test ~name:"digest_probe_4k" 4096);
      (`Quick, 1, digest_probe_test ~name:"digest_probe_262k" 262_144);
      (`Quick, micro_batch, vmap_find_16k_test ());
      (* one quorum-2 get per staged run *)
      (`Quick, 1, quorum_get_test ());
      (`Quick, micro_batch, net_write_coalesce_test ());
      (* one window of 16 pipelined gets per staged run *)
      (`Quick, pipeline_window, net_pipelined_rpc_test ());
      (`Quick, micro_batch, store_append_batch_test ());
      (`Quick, micro_batch, store_put_8k_test ());
      (`Quick, micro_batch,
       store_read_test ~name:"store_get_disk" ~cache_bytes:0);
      (`Quick, micro_batch,
       store_read_test ~name:"store_get_cached" ~cache_bytes:(64 lsl 20));
      (`Quick, store_recovery_records, store_recovery_replay_test ());
      (`Quick, store_compact_records, store_compact_test ());
    ]
  in
  let selected =
    List.filter_map
      (fun (tier, ops, t) -> if full || tier = `Quick then Some (ops, t) else None)
      tiered
    @ List.map (fun t -> (1, t)) (plan_tests ())
  in
  ignore !sink;
  selected

let run_micro scale =
  let open Bechamel in
  let open Bechamel.Toolkit in
  print_endline "== Bechamel micro-benchmarks ==";
  let instances = Instance.[ monotonic_clock ] in
  (* Quick scale runs the reduced tier on a short quota so CI still
     records micro numbers in the JSON without the full sweep. *)
  let full, quota =
    match scale with
    | Config.Paper -> (true, Time.second 0.5)
    | Config.Quick -> (false, Time.second 0.1)
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:(Some 1000) () in
  let tests = micro_tests ~full () in
  (* Micros run after the experiment suite; drop the suite's garbage
     first so the samples measure the kernels, not major-GC slices
     over a heap the micros never touch. *)
  Gc.compact ();
  List.concat_map
    (fun (ops, test) ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.fold
        (fun name result acc ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] ->
              let per_op = est /. float_of_int ops in
              Printf.printf "  %-24s %12.1f ns/op\n%!" name per_op;
              (name, Some per_op) :: acc
          | _ ->
              Printf.printf "  %-24s (no estimate)\n%!" name;
              (name, None) :: acc)
        ols [])
    tests

(* {1 Machine-readable results} *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_results path ~scale ~jobs ~total ~outcomes ~micros =
  let oc = open_out path in
  let gc = Gc_tune.current () in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"scale\": \"%s\",\n" (json_escape (Config.scale_name scale));
  Printf.fprintf oc "  \"jobs\": %d,\n" jobs;
  Printf.fprintf oc "  \"gc\": {\"minor_heap_words\": %d, \"space_overhead\": %d},\n"
    gc.Gc_tune.minor_heap_words gc.Gc_tune.space_overhead;
  Printf.fprintf oc "  \"total_wall_s\": %.3f,\n" total;
  Printf.fprintf oc "  \"experiments\": [\n";
  List.iteri
    (fun i (o : Registry.outcome) ->
      Printf.fprintf oc "    {\"id\": \"%s\", \"wall_s\": %.3f, \"shared_wall_s\": %.3f}%s\n"
        (json_escape o.Registry.o_entry.Registry.id)
        o.Registry.wall o.Registry.shared_wall
        (if i = List.length outcomes - 1 then "" else ","))
    outcomes;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"micro\": [\n";
  List.iteri
    (fun i (name, est) ->
      Printf.fprintf oc "    {\"name\": \"%s\", \"ns_per_op\": %s}%s\n" (json_escape name)
        (match est with Some v -> Printf.sprintf "%.1f" v | None -> "null")
        (if i = List.length micros - 1 then "" else ","))
    micros;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "results written to %s\n%!" path

let () =
  let rec parse ids json no_micro = function
    | [] -> (List.rev ids, json, no_micro)
    | "--no-micro" :: rest -> parse ids json true rest
    | "--json" :: path :: rest -> parse ids path no_micro rest
    | id :: rest -> parse (id :: ids) json no_micro rest
  in
  let ids, json_path, no_micro =
    parse [] "BENCH_results.json" false (List.tl (Array.to_list Sys.argv))
  in
  let env name ~default parse =
    match Sys.getenv_opt name with
    | None -> default
    | Some s -> (
        match parse s with
        | Some v -> v
        | None ->
            Printf.eprintf "bench: invalid %s=%S\n%!" name s;
            exit 2)
  in
  let scale = env "D2_SCALE" ~default:Config.Paper Config.scale_of_string in
  let jobs =
    env "D2_JOBS" ~default:(Pool.default_jobs ()) (fun s ->
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 1 -> Some n
        | Some _ | None -> None)
  in
  Gc_tune.apply ();
  let t0 = Unix.gettimeofday () in
  let outcomes = run_experiments scale ids ~jobs in
  let micros = if no_micro then [] else run_micro scale in
  let total = Unix.gettimeofday () -. t0 in
  Printf.printf "\nTotal wall time: %.1fs\n" total;
  write_results json_path ~scale ~jobs ~total ~outcomes ~micros
