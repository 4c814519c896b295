(* tcp_trace and tcp_durable: a three-node loopback cluster driven by
   one closed-loop client thread.

   The untraced run boots three unmodified [d2d] daemons (built from
   this checkout) and drives them from [D2_net.Client] over
   [Transport_unix] in this process.  A [d2d] process cannot be timed
   from outside, so the traced run hosts the three nodes in this
   process instead — one domain each, on the same loopback sockets,
   each driven by d2d's own loop ([poll], then [Node.flush_store]) —
   with node and client instantiated over {!Traced.Make}. *)

module Key = D2_keyspace.Key
module Rng = D2_util.Rng
module U = D2_net.Transport_unix
module Bootstrap = D2_net.Bootstrap
module Store = D2_segstore.Store
module Samples = Common.Samples

type workload = Trace | Durable

let name = function Trace -> "tcp_trace" | Durable -> "tcp_durable"
let n_nodes = 3
let replicas = 3
let window = 16
(* Set-ups per run; [setup_s] is their median.  tcp_trace's set-up is
   short, so it takes more of them. *)
let setups = function Trace -> 5 | Durable -> 3

(* Durable-store sizing: twice the store's 64 MB block cache per node,
   and segments small enough to rotate and compact many times a
   window. *)
let durable_blocks = 16_384
let segment_mb = 64

type cfg = {
  disk : bool;
  quorum_r : int;
  quorum_w : int;
  repair_interval : float;
}

let cfg_of = function
  | Trace -> { disk = false; quorum_r = 1; quorum_w = 1; repair_interval = 0.0 }
  | Durable -> { disk = true; quorum_r = 2; quorum_w = 2; repair_interval = 1.0 }

(* {1 Inputs: a pure function of the seed} *)

type inputs = {
  preload : Closed_loop.op array;  (** every key written once *)
  next : unit -> Closed_loop.op;  (** the endless measured stream *)
  warmup : int;  (** ops of [next] in the warm-up pass *)
  dataset : string;
}

(* The Harvard-like trace d2load replays by default (its seed, 6 users,
   one day, 4 MB of initial data) — a fixed recording, as a trace is.
   The benchmark's seed places it: it names the volume, and so every
   D2 key and the node that owns it, and picks where in the cycled
   trace the replay starts.  (Seeding the generator itself would swing
   the read/write mix from 88% to 99% reads between seeds: the trace's
   users are heavy-tailed.) *)
let trace_seed = 0xd21d

let harvard ~users ~mb =
  let params =
    {
      D2_trace.Harvard.default_params with
      users;
      days = 1.0;
      target_bytes = mb * 1024 * 1024;
    }
  in
  D2_trace.Harvard.generate ~rng:(Rng.create trace_seed) ~params ()

let loop_op keymap (o : D2_trace.Op.op) =
  let kind : Closed_loop.kind =
    match o.kind with Read -> Read | Write | Create -> Write | Delete -> Delete
  in
  { Closed_loop.kind; key = D2_trace.Keymap.key_of_op keymap o; len = o.bytes }

(* Each distinct key of [ops], written once, in first-touch order. *)
let first_writes ?(seen = Key.Table.create 4096) ops =
  Array.to_list ops
  |> List.filter_map (fun (o : Closed_loop.op) ->
         if o.kind = Delete || Key.Table.mem seen o.key then None
         else begin
           Key.Table.replace seen o.key ();
           Some { o with kind = Write }
         end)
  |> Array.of_list

let trace_inputs ~seed =
  let trace = harvard ~users:6 ~mb:4 in
  let keymap =
    D2_trace.Keymap.create D2_trace.Keymap.D2
      ~volume:(Printf.sprintf "/perfbench/%d" seed)
  in
  let ops = Array.map (loop_op keymap) trace.D2_trace.Op.ops in
  let n = Array.length ops in
  let i = ref (Rng.int (Rng.create seed) n) in
  let next () =
    let o = ops.(!i mod n) in
    incr i;
    o
  in
  let preload = first_writes ops in
  {
    preload;
    next;
    warmup = n;
    dataset =
      Printf.sprintf "Harvard-like trace, %d ops cycled, %d keys" n
        (Array.length preload);
  }

(* 16,384 8 KB blocks of a seeded namespace (128 files of 128 blocks
   under random directory names), then uniform half puts, half gets. *)
let durable_inputs ~seed =
  let rng = Rng.create (seed lxor 0xd0ab1e) in
  let keymap = D2_trace.Keymap.create D2_trace.Keymap.D2 ~volume:"/perfbench" in
  let files = durable_blocks / 128 in
  let keys =
    Array.concat
      (List.init files (fun _ ->
           let path =
             Printf.sprintf "/vol/%06x/%06x/f%06x" (Rng.int rng 0xffffff)
               (Rng.int rng 0xffffff) (Rng.int rng 0xffffff)
           in
           Array.init 128 (fun block -> D2_trace.Keymap.key_of keymap ~path ~block)))
  in
  let block = D2_net.Wire.max_payload in
  let preload =
    Array.map (fun key -> { Closed_loop.kind = Write; key; len = block }) keys
  in
  let next () =
    let key = keys.(Rng.int rng durable_blocks) in
    { Closed_loop.kind = (if Rng.bool rng then Write else Read); key; len = block }
  in
  {
    preload;
    next;
    warmup = durable_blocks;
    dataset = Printf.sprintf "%d blocks of %d B, uniform" durable_blocks block;
  }

let inputs workload ~seed =
  match workload with
  | Trace -> trace_inputs ~seed
  | Durable -> durable_inputs ~seed

(* {1 Clusters} *)

let d2d_exe = Filename.concat "_build" (Filename.concat "default" "bin/d2d.exe")

(* A base port whose three ports are free right now. *)
let free_port_base () =
  let free p =
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close s)
      (fun () ->
        Unix.setsockopt s Unix.SO_REUSEADDR true;
        match Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, p)) with
        | () -> true
        | exception Unix.Unix_error _ -> false)
  in
  let start = 20_000 + (Unix.getpid () * 37 mod 20_000) in
  let rec go base tries =
    if tries = 0 then failwith "no free loopback ports"
    else if List.for_all free (List.init n_nodes (fun i -> base + i)) then base
    else go (20_000 + ((base - 20_000 + 101) mod 20_000)) (tries - 1)
  in
  go start 200

let wait_listening ~port_base =
  let deadline = Common.now () +. 20.0 in
  for i = 0 to n_nodes - 1 do
    let rec try_once () =
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      let ok =
        match
          Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port_base + i))
        with
        | () -> true
        | exception Unix.Unix_error _ -> false
      in
      Unix.close s;
      if not ok then
        if Common.now () > deadline then failwith "d2d did not start listening"
        else begin
          Unix.sleepf 0.01;
          try_once ()
        end
    in
    try_once ()
  done

type cluster = {
  port_base : int;
  store_dir : string;
  rss_mb : unit -> float;
  stop : unit -> unit;
}

(* Daemons started by this process, stopped on any exit path. *)
let live_pids : int list ref = ref []

let kill_all () =
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with _ -> ()) !live_pids;
  List.iter (fun pid -> try ignore (Unix.waitpid [] pid) with _ -> ()) !live_pids;
  live_pids := []

let () = at_exit kill_all

let stop_daemons pids =
  List.iter (fun pid -> try Unix.kill pid Sys.sigterm with _ -> ()) pids;
  let deadline = Common.now () +. 10.0 in
  List.iter
    (fun pid ->
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Common.now () < deadline ->
            Unix.sleepf 0.01;
            wait ()
        | 0, _ ->
            (try Unix.kill pid Sys.sigkill with _ -> ());
            ignore (Unix.waitpid [] pid)
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      wait ())
    pids;
  live_pids := List.filter (fun p -> not (List.mem p pids)) !live_pids

let boot_daemons cfg ~tag =
  if not (Sys.file_exists d2d_exe) then
    failwith (d2d_exe ^ " is missing: build it with dune first");
  let port_base = free_port_base () in
  let store_dir = Filename.concat Common.run_dir ("store-" ^ tag) in
  Common.rm_rf store_dir;
  Common.mkdir_p store_dir;
  let pids =
    List.init n_nodes (fun i ->
        let log =
          Unix.openfile
            (Filename.concat Common.run_dir (Printf.sprintf "d2d-%s-%d.log" tag i))
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
            0o644
        in
        let args =
          [
            d2d_exe; "--node"; string_of_int i; "--nodes"; string_of_int n_nodes;
            "--port-base"; string_of_int port_base; "--replicas";
            string_of_int replicas; "--domains"; "1"; "--repair-interval";
            Printf.sprintf "%g" cfg.repair_interval; "--store";
            (if cfg.disk then "disk" else "mem"); "--store-dir"; store_dir;
            (* The store lives in the checkout, on whatever device that
               is: with [batch], the device's fdatasync latency set the
               throughput and swung it by a quarter between runs.
               [never] keeps the store's code paths, the per-turn group
               write included, and drops only the fdatasync and the
               ack's wait for it. *)
            "--fsync"; "never"; "--segment-mb"; string_of_int segment_mb;
            (* a safety net: a daemon outlives no run *)
            "--duration"; "170";
          ]
        in
        let pid =
          Unix.create_process d2d_exe (Array.of_list args) Unix.stdin log log
        in
        Unix.close log;
        live_pids := pid :: !live_pids;
        pid)
  in
  wait_listening ~port_base;
  {
    port_base;
    store_dir;
    rss_mb =
      (fun () ->
        List.fold_left (fun a pid -> a +. Common.vm_hwm_mb (string_of_int pid)) 0.0 pids);
    stop = (fun () -> stop_daemons pids);
  }

(* {2 In-process nodes for the traced run} *)

module TU = Traced.Make (U)
module TNode = D2_net.Node.Make (TU)

type hosted = { node : TNode.t; seg : Store.t option }

let node_config cfg =
  {
    D2_net.Node.default_config with
    replicas;
    repair_interval = cfg.repair_interval;
  }

let boot_hosted cfg ~tag =
  let port_base = free_port_base () in
  let store_dir = Filename.concat Common.run_dir ("store-" ^ tag) in
  Common.rm_rf store_dir;
  Common.mkdir_p store_dir;
  let stop = Atomic.make false in
  let ready = Array.init n_nodes (fun _ -> Atomic.make None) in
  let doms =
    List.init n_nodes (fun i ->
        Domain.spawn (fun () ->
            let inner =
              U.create ~node:i ~addr_of:(U.loopback ~port_base ~n:n_nodes) ()
            in
            let ep = TU.wrap inner ~role:Traced.Node in
            let seg =
              if not cfg.disk then None
              else
                Some
                  (Store.create
                     ~dir:(Filename.concat store_dir (Printf.sprintf "node-%d" i))
                     ~config:
                       {
                         Store.default_config with
                         segment_bytes = segment_mb lsl 20;
                         fsync = Store.Never;
                       }
                     ())
            in
            let store =
              match seg with
              | Some st ->
                  Store.on_durable st (fun () -> U.wake inner);
                  D2_net.Blockstore.disk st
              | None -> D2_net.Blockstore.mem_store ()
            in
            let node =
              TNode.create ep ~store ~config:(node_config cfg)
                ~id:(Bootstrap.node_id i) ~peers:(Bootstrap.peers n_nodes) ()
            in
            TNode.serve node;
            Atomic.set ready.(i) (Some { node; seg });
            while not (Atomic.get stop) do
              TU.poll ep ~timeout:0.05;
              Traced.span (TU.stats ep) Traced.k_flush (fun () ->
                  TNode.flush_store node)
            done;
            TNode.stop node;
            U.shutdown inner;
            Option.iter Store.close seg))
  in
  let hosted =
    Array.map
      (fun r ->
        let rec wait () =
          match Atomic.get r with
          | Some h -> h
          | None ->
              Unix.sleepf 0.005;
              wait ()
        in
        wait ())
      ready
  in
  let cluster =
    {
      port_base;
      store_dir;
      rss_mb = Common.self_hwm_mb;
      stop =
        (fun () ->
          Atomic.set stop true;
          List.iter Domain.join doms);
    }
  in
  (cluster, hosted)

let node_counts h =
  Layers.node_counts
    ~requests:(TNode.requests_served h.node)
    ~repair:(TNode.repair_stats h.node) ~vmap:(TNode.vmap h.node)

(* {1 One client over either transport} *)

module Session (T : D2_net.Transport.S) = struct
  module Client = D2_net.Client.Make (T)
  module D = Closed_loop.Make (Client)

  type t = { client : Client.t; loop : D.t; inputs : inputs }

  let create cfg ep ~payload ~inputs ~hooks =
    let client =
      Client.create ep ~replicas ~quorum_r:cfg.quorum_r ~quorum_w:cfg.quorum_w
        ~rpc_timeout:1.0
        ~seeds:(List.init n_nodes Fun.id)
        ()
    in
    let loop =
      D.create ~hooks ~clients:[| client |] ~window ~clock:Common.now ~payload ()
    in
    { client; loop; inputs }

  let step s () = Client.poll s.client ~timeout:0.001

  (* Preload every key, then one warm-up pass of the measured stream:
     both belong to set-up, not to the window. *)
  let prepare s =
    let tally = Closed_loop.new_tally () in
    let i = ref 0 in
    let pre = s.inputs.preload in
    D.run s.loop tally
      ~next:(fun _ ->
        if !i < Array.length pre then begin
          incr i;
          Some pre.(!i - 1)
        end
        else None)
      ~stop:(fun () -> false)
      ~step:(step s);
    let n = ref 0 in
    D.run s.loop tally
      ~next:(fun _ ->
        if !n < s.inputs.warmup then begin
          incr n;
          Some (s.inputs.next ())
        end
        else None)
      ~stop:(fun () -> false)
      ~step:(step s);
    tally

  (* The measured window.  It also returns (time, ops issued) at each
     whole second, for the per-second rates the report prints. *)
  let window s ~seconds =
    let tally = Closed_loop.new_tally () in
    let t0 = Common.now () in
    let deadline = t0 +. seconds in
    let cuts = ref [ (t0, 0) ] in
    D.run s.loop tally
      ~next:(fun _ -> Some (s.inputs.next ()))
      ~stop:(fun () ->
        let now = Common.now () in
        if now -. fst (List.hd !cuts) >= 1.0 then cuts := (now, tally.ops) :: !cuts;
        now >= deadline)
      ~step:(step s);
    (tally, Common.now () -. t0, List.rev !cuts)

  let read_back s = D.read_back s.loop ~step:(step s)
end

module Plain = Session (U)
module Hosted = Session (TU)

let client_ep ~port_base =
  U.create
    ~node:(Bootstrap.client_handle 0)
    ~addr_of:(U.loopback ~port_base ~n:n_nodes)
    ~listen:false ()

(* {1 Runs} *)

let ms x = x *. 1000.0

(* The op rate of each whole second of a window, from its cuts: the
   report prints them, so a stall inside the window shows. *)
let rates cuts =
  let rec go = function
    | (t0, o0) :: ((t1, o1) :: _ as rest) ->
        (float_of_int (o1 - o0) /. (t1 -. t0)) :: go rest
    | _ -> []
  in
  go cuts

type e2e = {
  setup_s : float;
  tally : Closed_loop.tally;
  elapsed : float;
  rates : float list;  (** op rate of each whole second of the window *)
  checked : int;
  readback_errors : int;  (** set-up verify errors included *)
  rss : float;
  store_bytes : int;
  live_bytes : int;
  distinct : int;
}

(* Ops per second of the window: the median of its whole-second rates,
   so a stall of a second or two on a shared host does not move it.
   A window shorter than a second falls back to its mean. *)
let window_ops_s ~ops ~elapsed rates =
  if rates = [] then float_of_int ops /. elapsed else Common.median rates

let ops_s r = window_ops_s ~ops:r.tally.Closed_loop.ops ~elapsed:r.elapsed r.rates

(* Boot a cluster, preload and warm it up; returns the set-up time.
   The window is measured on the first set-up; [n_setups - 1] more
   follow it, timed and torn down, so their disk traffic cannot touch
   the window. *)
let setup_plain workload ~seed ~payload =
  let cfg = cfg_of workload in
  let t0 = Common.now () in
  let cluster = boot_daemons cfg ~tag:(name workload) in
  let ep = client_ep ~port_base:cluster.port_base in
  let s =
    Plain.create cfg ep ~payload ~inputs:(inputs workload ~seed)
      ~hooks:Closed_loop.no_hooks
  in
  let pre = Plain.prepare s in
  if pre.failed + pre.verify_errors > 0 then
    Printf.printf "  set-up: %d failed ops, %d verify errors in preload/warm-up\n"
      pre.failed pre.verify_errors;
  (Common.now () -. t0, cluster, ep, s, pre)

let teardown cluster ep =
  U.shutdown ep;
  cluster.stop ();
  Common.rm_rf cluster.store_dir

let run_plain workload ~seed ~seconds ~n_setups =
  let payload = Common.Payload.create ~seed in
  let t_first, cluster, ep, s, pre = setup_plain workload ~seed ~payload in
  let tally, elapsed, cuts = Plain.window s ~seconds in
  let checked, readback_errors = Plain.read_back s in
  let readback_errors = readback_errors + pre.verify_errors in
  let rss = cluster.rss_mb () in
  let store_bytes = Common.dir_bytes cluster.store_dir in
  let live_bytes = Plain.D.live_bytes s.loop in
  let distinct = Key.Table.length (Plain.D.expect s.loop) in
  teardown cluster ep;
  let setup_times =
    t_first
    :: List.init (n_setups - 1) (fun _ ->
           let dt, cluster, ep, _, _ = setup_plain workload ~seed ~payload in
           teardown cluster ep;
           dt)
  in
  Printf.printf "  setup times: %s s\n"
    (String.concat ", " (List.map (Printf.sprintf "%.3f") setup_times));
  Closed_loop.traffic_lines ~label:"preload + warm-up" pre ~distinct ~live_bytes;
  ( {
      setup_s = Common.median setup_times;
      tally;
      elapsed;
      rates = rates cuts;
      checked;
      readback_errors;
      rss;
      store_bytes;
      live_bytes;
      distinct;
    },
    s.inputs.dataset )

let report_e2e workload r ~dataset =
  let t = r.tally in
  let g = Samples.sorted t.get_lat and p = Samples.sorted t.put_lat in
  let failures = t.failed + t.verify_errors + r.readback_errors in
  Printf.printf "%s: %s\n" (name workload) dataset;
  Closed_loop.traffic_lines ~label:"window" t ~distinct:r.distinct ~live_bytes:r.live_bytes;
  if workload = Durable then
    Printf.printf
      "  data set: %.1f MB live per node against a 64 MB block cache per node\n"
      (float_of_int r.live_bytes /. 1048576.0);
  Printf.printf "  read back %d live keys at quorum %d: %d errors\n" r.checked
    (cfg_of workload).quorum_r r.readback_errors;
  let base n = Printf.sprintf "n=%d" n in
  let m = Common.metric in
  let ms_of a q = ms (Common.percentile a q) in
  let lat =
    [
      (m "get_p50_ms" "ms" (ms_of g 50.0), base (Array.length g));
      (m "get_p99_ms" "ms" (ms_of g 99.0), base (Array.length g));
      (m "put_p50_ms" "ms" (ms_of p 50.0), base (Array.length p));
      (m "put_p99_ms" "ms" (ms_of p 99.0), base (Array.length p));
    ]
  in
  let all =
    [
      (m "setup_s" "s" r.setup_s, Printf.sprintf "median of %d set-ups" (setups workload));
      ( m "ops_s" "1/s" (ops_s r),
        Printf.sprintf "median of %d whole seconds; %d ops in %.3f s"
          (List.length r.rates) t.ops r.elapsed );
    ]
    @ lat
    @ [ (m "rss_mb" "MB" r.rss, "sum of the 3 daemons' VmHWM") ]
  in
  Printf.printf "  ops per second of the window: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.0f") r.rates));
  List.iter (fun (mt, b) -> Common.show ~base:b mt) all;
  (* Reported, but not on the result line: a mem store has no files,
     so it exists on tcp_durable only. *)
  if workload = Durable then
    Common.show
      ~base:
        (Printf.sprintf "%d store bytes / %d live user bytes" r.store_bytes
           r.live_bytes)
      (m "space_amp" "ratio" (Common.ratio r.store_bytes r.live_bytes));
  let fr = Common.ratio failures (max 1 t.ops) in
  Common.show
    ~base:(Printf.sprintf "%d failed + %d verify errors / %d ops" t.failed
             (t.verify_errors + r.readback_errors) t.ops)
    (m "fail_ratio" "ratio" fr);
  let enough = Array.length g >= 1000 && Array.length p >= 1000 in
  if not enough then
    Printf.printf "  ERROR: fewer than 1000 samples per op type in the window\n";
  (List.map fst all, failures, enough)

(* The client is a load generator: trade memory for fewer major
   collections, as d2load does. *)
let load_generator_gc () =
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024; space_overhead = 400 }

let run workload ~seed ~seconds =
  load_generator_gc ();
  let r, dataset = run_plain workload ~seed ~seconds ~n_setups:(setups workload) in
  let metrics, failures, enough = report_e2e workload r ~dataset in
  let correct = r.tally.verify_errors = 0 && r.readback_errors = 0 && enough in
  (correct, r.tally.ops, failures, metrics)

(* {1 Traced run} *)

let run_traced workload ~seed ~seconds =
  load_generator_gc ();
  let cfg = cfg_of workload in
  (* The untraced figure beside the traced one: same inputs, one set-up. *)
  let plain, _ = run_plain workload ~seed ~seconds ~n_setups:1 in
  let untraced_ops_s = ops_s plain in
  Traced.is_node_peer := (fun p -> p >= 0 && p < n_nodes);
  let cluster, hosted = boot_hosted cfg ~tag:(name workload ^ "-traced") in
  let ep = TU.wrap (client_ep ~port_base:cluster.port_base) ~role:Traced.Client in
  let cst = TU.stats ep in
  let hooks =
    {
      Closed_loop.issue = (fun _ ~op f -> Traced.span cst Traced.k_issue ~op f);
      op_done = (fun _ ~op ~start -> Traced.op_span cst ~op ~start);
    }
  in
  let payload = Common.Payload.create ~seed in
  let s = Hosted.create cfg ep ~payload ~inputs:(inputs workload ~seed) ~hooks in
  let pre = Hosted.prepare s in
  let stores () = Array.to_list hosted |> List.filter_map (fun h -> h.seg) in
  let client_counts () =
    Layers.client_counts
      ~lookup_rpcs:(Hosted.Client.lookup_rpcs s.client)
      ~failures:(Hosted.Client.failures s.client)
      (Hosted.Client.cache s.client)
  in
  let nodes0 = Array.map node_counts hosted and c0 = client_counts () in
  let stores0 = List.map Layers.store_counts (stores ()) in
  let snap0 = Traced.snapshot_all () in
  Traced.open_window ();
  let tally, elapsed, cuts = Hosted.window s ~seconds in
  Traced.close_window ();
  let traced = Traced.deltas snap0 in
  let c1 = client_counts () in
  let nodes =
    Array.to_list (Array.map2 Layers.sub_node nodes0 (Array.map node_counts hosted))
  in
  let stores =
    List.map2 Layers.sub_store stores0 (List.map Layers.store_counts (stores ()))
  in
  let checked, readback_errors = Hosted.read_back s in
  let readback_errors = readback_errors + pre.verify_errors in
  let live_bytes = Hosted.D.live_bytes s.loop in
  let w =
    {
      Layers.ops = tally.ops;
      gets = tally.gets;
      puts = tally.puts;
      wall_s = elapsed;
      clock_s = elapsed;
      clients = [ Layers.sub_client c0 c1 ];
      nodes;
      stores;
      live_bytes;
      traced;
    }
  in
  let layer = Layers.metrics w in
  Common.mkdir_p Common.run_dir;
  let spans = Filename.concat Common.run_dir (Printf.sprintf "spans-%s.tsv" (name workload)) in
  Traced.dump spans;
  U.shutdown (TU.inner ep);
  cluster.stop ();
  Common.rm_rf cluster.store_dir;
  let traced_ops_s = window_ops_s ~ops:tally.ops ~elapsed (rates cuts) in
  Printf.printf "%s (traced: nodes hosted in this process)\n" (name workload);
  let distinct = Key.Table.length (Hosted.D.expect s.loop) in
  Closed_loop.traffic_lines ~label:"preload + warm-up" pre ~distinct ~live_bytes;
  Closed_loop.traffic_lines ~label:"window" tally ~distinct ~live_bytes;
  Printf.printf "  read back %d live keys: %d errors; spans written to %s\n" checked
    readback_errors spans;
  Layers.print_tags w;
  let base = Printf.sprintf "base: %d ops in %.3f s" tally.ops elapsed in
  let overhead =
    [
      Common.metric "trace.ops_s_untraced" "1/s" untraced_ops_s;
      Common.metric "trace.ops_s_traced" "1/s" traced_ops_s;
      Common.metric "trace.overhead" "ratio"
        (Common.ratio_f (untraced_ops_s -. traced_ops_s) untraced_ops_s);
    ]
  in
  let all = layer @ overhead in
  List.iter (Common.show ~base) all;
  let failures =
    tally.failed + tally.verify_errors + readback_errors + plain.tally.failed
    + plain.tally.verify_errors + plain.readback_errors
  in
  let correct =
    tally.verify_errors + readback_errors + plain.tally.verify_errors
    + plain.readback_errors
    = 0
  in
  (correct, tally.ops + plain.tally.ops, failures, all)
