(* d2fleet: step a fleet of simulated D2 clients (a million by
   default) against a simulated cluster in virtual time, and report
   cache effectiveness and load concentration.

   The deterministic report — per-class hit/miss/stale counters, the
   hit-rate-vs-cache-size curve (one run yields every size up to
   [--ways] via LRU stack distances), and the per-owner load
   histogram — goes to stdout; wall-clock throughput goes to stderr so
   equal seeds diff clean.  [--min-ops-s] turns simulated throughput
   into an exit-code floor for CI. *)

open Cmdliner
module Fleet = D2_fleet.Fleet
module Scenario = D2_fleet.Scenario

let run scenario clients shards nodes ways files blocks burst duration seed jobs
    think zipf_s flash_at crowd_every crowd_think flash_files day amplitude
    churn_per_day drift min_ops_s =
  match Scenario.kind_of_string scenario with
  | None ->
      Printf.eprintf
        "d2fleet: unknown scenario %S (zipf_storm | flash_crowd | diurnal)\n"
        scenario;
      2
  | Some kind ->
      let d = Scenario.default kind in
      let v o dflt = Option.value o ~default:dflt in
      let sc =
        {
          d with
          Scenario.think = v think d.Scenario.think;
          zipf_s = v zipf_s d.Scenario.zipf_s;
          flash_at = v flash_at d.Scenario.flash_at;
          crowd_every = v crowd_every d.Scenario.crowd_every;
          crowd_think = v crowd_think d.Scenario.crowd_think;
          flash_files = v flash_files d.Scenario.flash_files;
          day = v day d.Scenario.day;
          amplitude = v amplitude d.Scenario.amplitude;
          churn_per_day = v churn_per_day d.Scenario.churn_per_day;
          drift;
        }
      in
      let cfg =
        {
          (Fleet.default_config sc) with
          Fleet.clients;
          shards;
          nodes;
          ways;
          files;
          blocks;
          burst;
          duration;
          seed;
          jobs;
        }
      in
      let t0 = Unix.gettimeofday () in
      (match Fleet.run cfg with
      | exception Invalid_argument m ->
          Printf.eprintf "d2fleet: %s\n" m;
          2
      | r ->
          let dt = Unix.gettimeofday () -. t0 in
          Format.printf "%a@?" Fleet.pp_report (cfg, r);
          let rate = if dt > 0.0 then float_of_int r.Fleet.ops /. dt else 0.0 in
          Printf.eprintf "wall %.2fs  %.0f simulated ops/s\n%!" dt rate;
          if rate < min_ops_s then begin
            Printf.eprintf "d2fleet: throughput below --min-ops-s %.0f\n"
              min_ops_s;
            1
          end
          else 0)

let dflt = Fleet.default_config (Scenario.default Scenario.Zipf_storm)

let scenario =
  let env = Cmd.Env.info "D2_FLEET_SCENARIO" in
  Arg.(
    value
    & opt string "zipf_storm"
    & info [ "s"; "scenario" ] ~env ~docv:"NAME"
        ~doc:"Workload: zipf_storm, flash_crowd or diurnal.")

let clients =
  let env = Cmd.Env.info "D2_FLEET_CLIENTS" in
  Arg.(
    value
    & opt int dflt.Fleet.clients
    & info [ "n"; "clients" ] ~env ~docv:"N" ~doc:"Simulated client count.")

let shards =
  Arg.(
    value
    & opt int dflt.Fleet.shards
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Fixed shard count; results depend on it, never on $(b,--jobs).")

let nodes =
  Arg.(value & opt int dflt.Fleet.nodes & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.")

let ways =
  Arg.(
    value
    & opt int dflt.Fleet.ways
    & info [ "ways" ] ~docv:"N"
        ~doc:
          "Per-client cache slots; also the upper bound of the reported \
           hit-rate-vs-size sweep (one run covers every size up to this).")

let files =
  Arg.(value & opt int dflt.Fleet.files & info [ "files" ] ~docv:"N" ~doc:"Files on the volume.")

let blocks =
  Arg.(value & opt int dflt.Fleet.blocks & info [ "blocks" ] ~docv:"N" ~doc:"Blocks per file.")

let burst =
  Arg.(
    value
    & opt int dflt.Fleet.burst
    & info [ "burst" ] ~docv:"N"
        ~doc:"Sequential blocks read per client wake-up.")

let duration =
  Arg.(
    value
    & opt float dflt.Fleet.duration
    & info [ "d"; "duration" ] ~docv:"SECONDS" ~doc:"Virtual run length.")

let seed =
  Arg.(value & opt int dflt.Fleet.seed & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.")

let jobs =
  Arg.(
    value
    & opt int dflt.Fleet.jobs
    & info [ "j"; "jobs" ] ~env:(Cmd.Env.info "D2_JOBS") ~docv:"N"
        ~doc:"Worker domains (default one less than the recommended \
              domain count); wall-clock only.")

let fopt names doc =
  Arg.(value & opt (some float) None & info names ~docv:"X" ~doc)

let iopt names doc =
  Arg.(value & opt (some int) None & info names ~docv:"N" ~doc)

let think = fopt [ "think" ] "Mean client think time (virtual seconds)."
let zipf_s = fopt [ "zipf-s" ] "Popularity exponent over files."
let flash_at = fopt [ "flash-at" ] "Crowd wake-up instant (flash_crowd)."
let crowd_every = iopt [ "crowd-every" ] "Every k-th client is crowd-class."
let crowd_think = fopt [ "crowd-think" ] "Crowd think time after the flash."
let flash_files = iopt [ "flash-files" ] "Crowd draws from the hottest k files."
let day = fopt [ "day" ] "Diurnal period (virtual seconds)."
let amplitude = fopt [ "amplitude" ] "Diurnal rate swing, in [0, 1)."

let churn_per_day =
  fopt [ "churn-per-day" ] "Node churn events per node per day (diurnal)."

let drift =
  Arg.(
    value
    & flag
    & info [ "drift" ]
        ~doc:"Rotate the popularity ranking at each churn event.")

let min_ops_s =
  Arg.(
    value
    & opt float 0.0
    & info [ "min-ops-s" ] ~docv:"RATE"
        ~doc:"Exit non-zero below this simulated ops/s (CI gate).")

let cmd =
  let doc = "simulate a fleet of D2 clients at hardware speed" in
  Cmd.v
    (Cmd.info "d2fleet" ~doc)
    Term.(
      const run $ scenario $ clients $ shards $ nodes $ ways $ files $ blocks
      $ burst $ duration $ seed $ jobs $ think $ zipf_s $ flash_at $ crowd_every
      $ crowd_think $ flash_files $ day $ amplitude $ churn_per_day $ drift
      $ min_ops_s)

let () = exit (Cmd.eval' cmd)
