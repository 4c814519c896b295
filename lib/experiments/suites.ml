module Keymap = D2_trace.Keymap
module Availability = D2_core.Availability
module Perf = D2_core.Perf
module Balance_sim = D2_core.Balance_sim
module Locality = D2_core.Locality

let all_modes = [ Keymap.Traditional; Keymap.Traditional_file; Keymap.D2 ]

(* Domain-safe: concurrent experiments requesting the same replay or
   pass block on the first builder instead of duplicating it. *)
let avail_memo : Availability.replay D2_util.Memo.t = D2_util.Memo.create ()
let perf_memo : Perf.pass D2_util.Memo.t = D2_util.Memo.create ()
let balance_memo : Balance_sim.result D2_util.Memo.t = D2_util.Memo.create ()
let locality_memo : Locality.result list D2_util.Memo.t = D2_util.Memo.create ()

let memo tbl key build = D2_util.Memo.get tbl key build

let availability_replay scale ~mode ~trial =
  let key =
    Printf.sprintf "%s|%s|%d" (Config.scale_name scale) (Keymap.mode_name mode) trial
  in
  memo avail_memo key (fun () ->
      let trace = Data.harvard scale in
      let failures = Data.failures scale ~trial in
      Availability.replay ~trace ~failures ~mode
        ~seed:(Config.master_seed + 200 + trial)
        ())

let perf_pass scale ~mode ~nodes ~bandwidth =
  let key =
    Printf.sprintf "%s|%s|%d|%.0f" (Config.scale_name scale) (Keymap.mode_name mode)
      nodes bandwidth
  in
  memo perf_memo key (fun () ->
      let trace = Data.harvard scale in
      let config =
        {
          (Perf.default_config ~nodes ~bandwidth) with
          Perf.base_nodes = Config.perf_base_nodes scale;
          seed = Config.master_seed + 300;
        }
      in
      Perf.run_pass ~trace ~mode ~config)

let balance_result scale ~trace ~setup =
  let tname = match trace with `Harvard -> "harvard" | `Webcache -> "webcache" in
  let key =
    Printf.sprintf "%s|%s|%s" (Config.scale_name scale) tname
      (Balance_sim.setup_name setup)
  in
  memo balance_memo key (fun () ->
      let tr = match trace with `Harvard -> Data.harvard scale | `Webcache -> Data.webcache scale in
      let params =
        Balance_sim.default_params ~nodes:(Config.balance_nodes scale)
          ~seed:(Config.master_seed + 400)
      in
      (* The web cache starts empty; skip the pre-trace balancing
         phase that only makes sense with preloaded data. *)
      let params =
        match trace with
        | `Harvard -> params
        | `Webcache -> { params with Balance_sim.warmup = 3600.0 }
      in
      Balance_sim.run ~trace:tr ~setup ~params)

let workload_name = function
  | `Harvard -> "harvard"
  | `Hp -> "hp"
  | `Web -> "web"
  | `Webcache -> "webcache"

let locality scale ~workload ~nodes =
  let key =
    Printf.sprintf "%s|%s|%d" (Config.scale_name scale) (workload_name workload)
      nodes
  in
  memo locality_memo key (fun () ->
      let trace =
        match workload with
        | `Harvard -> Data.harvard scale
        | `Hp -> Data.hp scale
        | `Web -> Data.web scale
      in
      Locality.analyze_all trace ~nodes)

(* Datapoint cells: the schedulable unit of {!Registry.run_entries}.
   Each cell warms exactly one memo slot; its label doubles as the
   dedup key when several experiments list the same dependency.  The
   thunks only [ignore] the memoized value — the experiment's [run]
   re-reads everything from the (now warm) caches. *)

type cell = string * (unit -> unit)

let trace_cell scale w =
  ( Printf.sprintf "trace|%s|%s" (Config.scale_name scale) (workload_name w),
    fun () ->
      ignore
        ((match w with
         | `Harvard -> Data.harvard scale
         | `Hp -> Data.hp scale
         | `Web -> Data.web scale
         | `Webcache -> Data.webcache scale)
          : D2_trace.Op.t) )

let locality_cell scale ~workload ~nodes =
  ( Printf.sprintf "locality|%s|%s|%d" (Config.scale_name scale)
      (workload_name workload) nodes,
    fun () -> ignore (locality scale ~workload ~nodes : Locality.result list) )

let avail_cell scale ~mode ~trial =
  ( Printf.sprintf "avail|%s|%s|%d" (Config.scale_name scale)
      (Keymap.mode_name mode) trial,
    fun () ->
      ignore (availability_replay scale ~mode ~trial : Availability.replay) )

let perf_cell scale ~mode ~nodes ~bandwidth =
  ( Printf.sprintf "perf|%s|%s|%d|%.0f" (Config.scale_name scale)
      (Keymap.mode_name mode) nodes bandwidth,
    fun () -> ignore (perf_pass scale ~mode ~nodes ~bandwidth : Perf.pass) )

let balance_cell scale ~trace ~setup =
  ( Printf.sprintf "balance|%s|%s|%s" (Config.scale_name scale)
      (workload_name trace) (Balance_sim.setup_name setup),
    fun () -> ignore (balance_result scale ~trace ~setup : Balance_sim.result) )
