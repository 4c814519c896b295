module Harvard = D2_trace.Harvard
module Hp = D2_trace.Hp
module Web = D2_trace.Web

type scale = Quick | Paper

let scale_of_string = function
  | "quick" -> Some Quick
  | "paper" -> Some Paper
  | _ -> None

let scale_name = function Quick -> "quick" | Paper -> "paper"

let master_seed = 20070331

let harvard_params = function
  | Quick ->
      {
        Harvard.default_params with
        Harvard.users = 30;
        target_bytes = 48 * 1024 * 1024;
        days = 3.0;
      }
  | Paper ->
      { Harvard.default_params with Harvard.target_bytes = 160 * 1024 * 1024 }

let hp_params = function
  | Quick -> { Hp.default_params with Hp.apps = 15; days = 3.0; disk_blocks = 32768 }
  | Paper -> Hp.default_params

let web_params = function
  | Quick ->
      { Web.default_params with Web.clients = 40; days = 3.0; domains = 400 }
  | Paper -> Web.default_params

let fig3_nodes = function Quick -> 60 | Paper -> 250

let avail_nodes = function Quick -> 60 | Paper -> 247
let avail_trials = function Quick -> 2 | Paper -> 5
let avail_inters = [ 1.0; 5.0; 15.0; 60.0 ]

let perf_sizes = function Quick -> [ 100; 250 ] | Paper -> [ 200; 500; 1000 ]
let perf_base_nodes = function Quick -> 100 | Paper -> 200

let perf_bandwidths = function
  | Quick -> [ 1_500_000.0 ]
  | Paper -> [ 1_500_000.0; 384_000.0 ]

let balance_nodes = function Quick -> 50 | Paper -> 247

let bakeoff_nodes = function Quick -> 2048 | Paper -> 10240
let bakeoff_trials = function Quick -> 400 | Paper -> 2000

let repair_nodes = function Quick -> 12 | Paper -> 25
let repair_blocks = function Quick -> 80 | Paper -> 240
