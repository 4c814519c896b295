module Cluster = D2_store.Cluster
module Ring = D2_dht.Ring
module Engine = D2_simnet.Engine
module Rng = D2_util.Rng
module Key = D2_keyspace.Key

let log_src = Logs.Src.create "d2.balance" ~doc:"Karger-Ruhl load balancing events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = { probe_interval : float; threshold : float }

let default_config = { probe_interval = 600.0; threshold = 4.0 }

type stats = { probes : int; moves : int }

type t = { mutable probes : int; mutable moves : int }

let stats t : stats = { probes = t.probes; moves = t.moves }

(* Pick an unused ring ID at or just below the wanted split point. *)
let free_id_near ring wanted =
  let rec search key attempts =
    if attempts = 0 then None
    else if Ring.id_taken ring key then search (Key.pred key) (attempts - 1)
    else Some key
  in
  search wanted 64

let do_probe ~cluster ~(cfg : config) ~prober ~target =
  let open Cluster in
  if prober = target then false
  else if not (is_up cluster ~node:prober && is_up cluster ~node:target) then false
  else begin
    let lp = (node_stats cluster prober).primary_bytes in
    let lt = (node_stats cluster target).primary_bytes in
    if float_of_int lt > cfg.threshold *. float_of_int (max lp 1) then begin
      match median_primary_key cluster ~node:target with
      | None -> false
      | Some split -> (
          match free_id_near (ring cluster) split with
          | None -> false
          | Some id ->
              if Key.equal (Ring.id_of (ring cluster) ~node:prober) id then false
              else begin
                Log.debug (fun m ->
                    m "node %d (%d B) splits node %d (%d B) at %s" prober lp target
                      lt (Key.short_hex id));
                change_id cluster ~node:prober ~id;
                true
              end)
    end
    else false
  end

let probe_once ~cluster ?(config = default_config) ~prober ~target () =
  do_probe ~cluster ~cfg:config ~prober ~target

let attach ~cluster ~rng ?(config = default_config) ~until () =
  let cfg = config in
  let t = { probes = 0; moves = 0 } in
  let engine = Cluster.engine cluster in
  let n = Cluster.node_count cluster in
  for node = 0 to n - 1 do
    let node_rng = Rng.split rng in
    (* Stagger the first probe uniformly within one interval. *)
    let first = Rng.float node_rng cfg.probe_interval in
    let rec tick () =
      if Engine.now engine <= until then begin
        if Cluster.is_up cluster ~node then begin
          let target = Rng.int node_rng n in
          t.probes <- t.probes + 1;
          if do_probe ~cluster ~cfg ~prober:node ~target then
            t.moves <- t.moves + 1
        end;
        Engine.schedule_in engine ~delay:cfg.probe_interval tick
      end
    in
    Engine.schedule_in engine ~delay:first tick
  done;
  t
