(* d2d: one D2 storage node over real TCP.

   A fixed-size loopback deployment: node [--node] of [--nodes] binds
   127.0.0.1:port_base+node (--port-base or D2_NET_PORT_BASE), joins
   the peers that are already up, and serves lookup/get/put/remove
   until SIGINT/SIGTERM or --duration elapses.

   With [--domains k] (or D2_NET_DOMAINS), k domains serve the same
   logical node: every domain binds its own SO_REUSEPORT listener on
   the node's address and runs its own poll loop, the kernel spreading
   inbound connections across them.  Ring/router state is shared under
   the node's membership lock and the per-key table is
   lock-partitioned, so the get/put data path scales across domains. *)

open Cmdliner
module T = D2_net.Transport_unix
module Node = D2_net.Node.Make (D2_net.Transport_unix)
module Bootstrap = D2_net.Bootstrap

let stop_flag = Atomic.make false

let usage msg =
  Printf.eprintf "d2d: %s\n" msg;
  exit 2

let run node nodes port_base replicas probe_interval rpc_timeout
    repair_interval duration domains policy_str store_kind store_dir fsync_str
    segment_mb =
  let policy =
    match D2_dht.Router.policy_of_string policy_str with
    | Some p -> p
    | None -> usage ("unknown --policy " ^ policy_str)
  in
  let fsync =
    match D2_segstore.Store.fsync_policy_of_string fsync_str with
    | Some p -> p
    | None -> usage ("unknown --fsync " ^ fsync_str)
  in
  if store_kind <> "mem" && store_kind <> "disk" then
    usage ("unknown --store " ^ store_kind);
  if node < 0 || node >= nodes then
    usage (Printf.sprintf "--node must be in [0, %d)" nodes);
  if replicas < 1 then usage "--replicas must be >= 1";
  if not (probe_interval > 0.0) then usage "--probe-interval must be > 0";
  if not (rpc_timeout > 0.0) then usage "--rpc-timeout must be > 0";
  if not (repair_interval >= 0.0) then usage "--repair-interval must be >= 0";
  if domains < 1 then usage "--domains must be >= 1";
  if segment_mb < 1 then usage "--segment-mb must be >= 1";
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle (fun _ -> Atomic.set stop_flag true));
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> Atomic.set stop_flag true));
  let addr_of = T.loopback ~port_base ~n:nodes in
  let reuseport = domains > 1 in
  let ep = T.create ~node ~addr_of ~reuseport () in
  let config =
    { D2_net.Node.replicas; probe_interval; rpc_timeout; repair_interval }
  in
  (* Each node keeps its segments under <store-dir>/node-<i>, so every
     daemon of a loopback cluster can share one --store-dir and a
     restarted node finds its own data again. *)
  let seg_store =
    if store_kind <> "disk" then None
    else begin
      let dir = Filename.concat store_dir (Printf.sprintf "node-%d" node) in
      let cfg =
        {
          D2_segstore.Store.default_config with
          segment_bytes = segment_mb lsl 20;
          fsync;
        }
      in
      let st = D2_segstore.Store.create ~dir ~config:cfg () in
      (match D2_segstore.Store.recovery st with
      | Some r when r.D2_segstore.Store.r_segments > 0 ->
          let mb = float_of_int r.D2_segstore.Store.r_replayed_bytes /. 1048576. in
          Printf.printf
            "d2d: node %d recovered %d blocks (ckpt %d + %d replayed, %.2f \
             MB, %d B truncated) in %.3f s (%.1f MB/s)\n%!"
            node
            (D2_segstore.Store.count st)
            r.D2_segstore.Store.r_checkpoint_blocks
            r.D2_segstore.Store.r_replayed_records mb
            r.D2_segstore.Store.r_truncated_bytes
            r.D2_segstore.Store.r_wall_s
            (if r.D2_segstore.Store.r_wall_s > 0. then
               mb /. r.D2_segstore.Store.r_wall_s
             else 0.)
      | _ -> ());
      Some st
    end
  in
  let store =
    match seg_store with
    | Some st -> D2_net.Blockstore.disk st
    | None -> D2_net.Blockstore.mem_store ()
  in
  (* When a background group commit lands, poke every domain's poll
     loop: the acks the commit covers go out now, not at the next
     timer tick.  Worker endpoints enroll themselves once created. *)
  let wakers = ref [ ep ] in
  let wakers_mu = Mutex.create () in
  (match seg_store with
  | Some st ->
      D2_segstore.Store.on_durable st (fun () ->
          Mutex.lock wakers_mu;
          let eps = !wakers in
          Mutex.unlock wakers_mu;
          List.iter T.wake eps)
  | None -> ());
  let n =
    Node.create ep ~policy ~store ~config ~id:(Bootstrap.node_id node)
      ~peers:(Bootstrap.peers nodes) ()
  in
  Node.serve n;
  Printf.printf
    "d2d: node %d/%d listening on 127.0.0.1:%d (replicas=%d, domains=%d, \
     policy=%s, repair=%gs)\n%!"
    node nodes (port_base + node) replicas domains
    (D2_dht.Router.policy_name policy)
    repair_interval;
  let deadline =
    if duration > 0.0 then Some (Unix.gettimeofday () +. duration) else None
  in
  let expired () =
    match deadline with
    | Some t -> Unix.gettimeofday () >= t
    | None -> false
  in
  let served = Atomic.make 0 in
  (* Worker domains: each owns one SO_REUSEPORT endpoint and a sibling
     view of the node, and polls only its own sockets. *)
  let workers =
    if domains <= 1 then []
    else begin
      let pool = D2_util.Pool.create ~jobs:(domains - 1) () in
      let ps =
        List.init (domains - 1) (fun _ ->
            D2_util.Pool.submit pool (fun () ->
                let wep = T.create ~node ~addr_of ~reuseport:true () in
                Mutex.lock wakers_mu;
                wakers := wep :: !wakers;
                Mutex.unlock wakers_mu;
                let s = Node.sibling n wep in
                while not (Atomic.get stop_flag) do
                  T.poll wep ~timeout:0.05;
                  Node.flush_store s
                done;
                Mutex.lock wakers_mu;
                wakers := List.filter (fun e -> e != wep) !wakers;
                Mutex.unlock wakers_mu;
                T.shutdown wep;
                Atomic.fetch_and_add served (Node.requests_served s) |> ignore))
      in
      [ (pool, ps) ]
    end
  in
  while (not (Atomic.get stop_flag)) && not (expired ()) do
    T.poll ep ~timeout:0.05;
    Node.flush_store n
  done;
  Atomic.set stop_flag true;
  List.iter
    (fun (pool, ps) ->
      List.iter D2_util.Pool.await ps;
      D2_util.Pool.shutdown pool)
    workers;
  Node.stop n;
  T.shutdown ep;
  (match seg_store with Some st -> D2_segstore.Store.close st | None -> ());
  Printf.printf "d2d: node %d served %d requests, %d blocks (%d bytes) stored\n%!"
    node
    (Node.requests_served n + Atomic.get served)
    (D2_sync.Vmap.blocks (Node.vmap n))
    (D2_sync.Vmap.stored_bytes (Node.vmap n))

let node_term =
  Arg.(
    required
    & opt (some int) None
    & info [ "node" ] ~docv:"N" ~doc:"This node's index in the cluster.")

let nodes_term =
  Arg.(
    value & opt int 3
    & info [ "nodes" ] ~docv:"M" ~doc:"Cluster size (all processes must agree).")

let port_base_term =
  Arg.(
    value & opt int 7000
    & info [ "port-base" ] ~env:(Cmd.Env.info "D2_NET_PORT_BASE") ~docv:"PORT"
        ~doc:"Node $(i,i) listens on 127.0.0.1:PORT+$(i,i).")

let replicas_term =
  Arg.(
    value & opt int 3
    & info [ "replicas" ] ~docv:"R" ~doc:"Copies per block, owner included.")

let probe_term =
  Arg.(
    value & opt float 0.5
    & info [ "probe-interval" ] ~docv:"SECS" ~doc:"Liveness probe period.")

let timeout_term =
  Arg.(
    value & opt float 0.25
    & info [ "rpc-timeout" ] ~docv:"SECS" ~doc:"Per-RPC reply deadline.")

let repair_term =
  Arg.(
    value & opt float 1.0
    & info [ "repair-interval" ]
        ~env:(Cmd.Env.info "D2_REPAIR_INTERVAL")
        ~docv:"SECS"
        ~doc:"Anti-entropy period: every SECS this node reconciles its \
              primary range with one successor (digest exchange, then \
              block transfers), rotating through the replica set.  0 \
              disables repair.")

let duration_term =
  Arg.(
    value & opt float 0.0
    & info [ "duration" ] ~docv:"SECS"
        ~doc:"Exit cleanly after SECS seconds (0 = run until a signal).")

let domains_term =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~env:(Cmd.Env.info "D2_NET_DOMAINS") ~docv:"K"
        ~doc:"Serve this node with K domains, each on its own \
              SO_REUSEPORT listener.")

let policy_term =
  Arg.(
    value & opt string "fingers"
    & info [ "policy" ] ~env:(Cmd.Env.info "D2_ROUTE_POLICY") ~docv:"POLICY"
        ~doc:"Routing-link policy: fingers, harmonic-$(i,k), chord, \
              kademlia-$(i,b), or successor-only.  All nodes of a \
              cluster should agree.")

let store_term =
  Arg.(
    value & opt string "mem"
    & info [ "store" ] ~env:(Cmd.Env.info "D2_STORE") ~docv:"KIND"
        ~doc:"Block backend: $(b,mem) (blocks held in RAM) or $(b,disk) \
              (durable segment log with group commit).")

let store_dir_term =
  Arg.(
    value & opt string "/tmp/d2-store"
    & info [ "store-dir" ] ~env:(Cmd.Env.info "D2_STORE_DIR") ~docv:"DIR"
        ~doc:"Cluster store root for --store disk; this node's segments \
              live in DIR/node-$(i,N).")

let fsync_term =
  Arg.(
    value & opt string "batch"
    & info [ "fsync" ] ~env:(Cmd.Env.info "D2_FSYNC_BATCH") ~docv:"POLICY"
        ~doc:"Durability policy for --store disk: $(b,batch) (one \
              fdatasync per group-commit window), $(b,always) (sync every \
              put — the honest lower bound), or $(b,never) (kernel \
              writeback).")

let segment_mb_term =
  Arg.(
    value & opt int 64
    & info [ "segment-mb" ] ~env:(Cmd.Env.info "D2_SEGMENT_MB") ~docv:"MB"
        ~doc:"Segment rotation threshold in MiB.")

let cmd =
  let doc = "run one D2 storage node over TCP" in
  Cmd.v
    (Cmd.info "d2d" ~doc)
    Term.(
      const run $ node_term $ nodes_term $ port_base_term $ replicas_term
      $ probe_term $ timeout_term $ repair_term $ duration_term $ domains_term
      $ policy_term $ store_term $ store_dir_term $ fsync_term
      $ segment_mb_term)

let () = exit (Cmd.eval cmd)
