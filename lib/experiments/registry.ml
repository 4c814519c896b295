module Pool = D2_util.Pool
module Report = D2_util.Report

type entry = {
  id : string;
  title : string;
  run : Config.scale -> D2_util.Report.t list;
  cells : Config.scale -> Suites.cell list;
}

let entry ?(cells = fun _ -> []) id title run = { id; title; run; cells }

let all =
  [
    entry "table1" "Workloads analyzed" Table1.run ~cells:Table1.cells;
    entry "fig3" "Locality of key orderings" Fig3.run ~cells:Fig3.cells;
    entry "table2" "Objects and nodes per task" Table2.run ~cells:Table2.cells;
    entry "fig7" "Task unavailability vs inter" Fig7.run ~cells:Fig7.cells;
    entry "fig8" "Per-user unavailability" Fig8.run ~cells:Fig8.cells;
    entry "fig9" "Lookup traffic vs system size" Fig9.run ~cells:Fig9.cells;
    entry "fig10" "Speedup over traditional" Fig10.run ~cells:Fig10.cells;
    entry "fig11" "Speedup over traditional-file" Fig11.run ~cells:Fig11.cells;
    entry "fig12" "Per-user speedup" Fig12.run ~cells:Fig12.cells;
    entry "fig13" "Lookup cache miss rate" Fig13.run ~cells:Fig13.cells;
    entry "fig14" "Latency scatter vs traditional" Fig14.run ~cells:Fig14.cells;
    entry "fig15" "Latency scatter vs traditional-file" Fig15.run ~cells:Fig15.cells;
    entry "fig16" "Load imbalance (Harvard)" Fig16.run ~cells:Fig16.cells;
    entry "fig17" "Load imbalance (Webcache)" Fig17.run ~cells:Fig17.cells;
    entry "table3" "Daily churn ratios" Table3.run ~cells:Table3.cells;
    entry "table4" "Write vs migration traffic" Table4.run ~cells:Table4.cells;
    entry "ablation_pointers" "Block pointers on/off" Ablations.pointers;
    entry "ablation_routing" "Routing hop counts" Ablations.routing;
    entry "ablation_cache_ttl" "Cache TTL sweep" Ablations.cache_ttl;
    entry "ablation_replicas" "Replication factor" Ablations.replicas;
    entry "ablation_hybrid" "Hybrid replica placement (§11)" Ablations.hybrid;
    entry "ablation_erasure" "Replication vs erasure coding (§3)" Ablations.erasure;
    entry "ablation_stp" "TCP vs STP-style transport (§9.3)" Ablations.stp;
    entry "ablation_hotspot" "Retrieval caches vs hot spots (§6)" Ablations.hotspot;
    entry "bakeoff_routing" "Routing-policy bake-off (4 policies x 2 ID dists)"
      Bakeoff.run;
    entry "repair_bandwidth"
      "Anti-entropy repair bandwidth vs availability (§12)" Repair_avail.run;
  ]

let find id = List.find_opt (fun e -> e.id = id) all

type outcome = {
  o_entry : entry;
  output : string;
  logs : string;
  wall : float;
  shared_wall : float;
}

(* Worker domains must not write through whatever Logs reporter is
   installed (formatters are not domain-safe, and interleaved lines
   would defeat deterministic output).  While a run is in flight, log
   records are redirected into per-cell / per-render buffers looked up
   by the reporting domain's id; each entry's captured log text is
   emitted with its outcome, in registry order. *)
let buffering_reporter ~find_buf =
  let report src level ~over k msgf =
    match find_buf () with
    | None ->
        over ();
        k ()
    | Some buf ->
        let ppf = Format.formatter_of_buffer buf in
        msgf (fun ?header ?tags:_ fmt ->
            Format.kfprintf
              (fun ppf ->
                Format.pp_print_flush ppf ();
                Buffer.add_char buf '\n';
                over ();
                k ())
              ppf
              ("%s: [%s] %s" ^^ fmt)
              (Logs.Src.name src)
              (Logs.level_to_string (Some level))
              (match header with Some h -> h ^ " " | None -> ""))
  in
  { Logs.report }

(* One datapoint task: a deduplicated cell owned by the first entry
   that listed it.  [c_start] / [c_stop] are its wall-clock span (-1
   until it runs / finishes); its log records accumulate in [c_buf]. *)
type cell_task = {
  c_label : string;
  c_thunk : unit -> unit;
  c_buf : Buffer.t;
  mutable c_start : float;
  mutable c_stop : float;
}

(* Split the entries into (entry, owned cells, shared cells).  Dedup is
   by label across the whole run: a cell shared by several entries is
   computed (and its logs attributed) under the first entry that lists
   it; later entries hit the warm memo inside their render and record
   the same cell_task as {e shared} so its cost still shows up in their
   [shared_wall] attribution. *)
let prepare scale entries =
  let seen : (string, cell_task) Hashtbl.t = Hashtbl.create 64 in
  List.map
    (fun e ->
      let owned = ref [] in
      let shared = ref [] in
      List.iter
        (fun (label, thunk) ->
          match Hashtbl.find_opt seen label with
          | Some c -> shared := c :: !shared
          | None ->
              let c =
                {
                  c_label = label;
                  c_thunk = thunk;
                  c_buf = Buffer.create 64;
                  c_start = -1.0;
                  c_stop = -1.0;
                }
              in
              Hashtbl.add seen label c;
              owned := c :: !owned)
        (e.cells scale);
      (e, List.rev !owned, List.rev !shared))
    entries

let with_buf ~mu ~bufs buf f =
  let did = (Domain.self () :> int) in
  Mutex.lock mu;
  Hashtbl.replace bufs did buf;
  Mutex.unlock mu;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock mu;
      Hashtbl.remove bufs did;
      Mutex.unlock mu)
    f

let run_cell ~mu ~bufs c =
  c.c_start <- Unix.gettimeofday ();
  with_buf ~mu ~bufs c.c_buf c.c_thunk;
  c.c_stop <- Unix.gettimeofday ()

(* Render an entry's tables (its datapoint cells have at least started
   by now — the memos block on in-flight builds).  The reported wall
   is the honest elapsed span of this entry's work: from its earliest
   owned cell's start (or the render's own start when it owns none) to
   render end. *)
let render ~mu ~bufs scale (e, owned, _shared) =
  let rbuf = Buffer.create 256 in
  let t0 = Unix.gettimeofday () in
  let output =
    with_buf ~mu ~bufs rbuf (fun () ->
        String.concat "" (List.map Report.render (e.run scale)))
  in
  let t1 = Unix.gettimeofday () in
  let first_start =
    List.fold_left
      (fun acc c -> if c.c_start >= 0.0 then Float.min acc c.c_start else acc)
      t0 owned
  in
  let logs =
    String.concat "" (List.map (fun c -> Buffer.contents c.c_buf) owned)
    ^ Buffer.contents rbuf
  in
  { o_entry = e; output; logs; wall = t1 -. first_start; shared_wall = 0.0 }

(* Fill in each outcome's [shared_wall]: the summed spans of the cells
   this entry consumed but another entry owned (and whose cost is
   therefore inside that other entry's [wall]).  Must run only after
   every cell has finished — spans of unfinished or failed cells read
   as 0. *)
let attach_shared prepared outcomes =
  let span c =
    if c.c_start >= 0.0 && c.c_stop >= 0.0 then c.c_stop -. c.c_start else 0.0
  in
  List.map2
    (fun (_, _, shared) o ->
      { o with shared_wall = List.fold_left (fun acc c -> acc +. span c) 0.0 shared })
    prepared outcomes

let run_sequential ~mu ~bufs scale prepared =
  List.map
    (fun ((_, owned, _) as eo) ->
      List.iter (run_cell ~mu ~bufs) owned;
      render ~mu ~bufs scale eo)
    prepared

(* Every cell is submitted before any render, so the pool's FIFO queue
   guarantees that when a render task is popped, each cell has at
   least started on some worker — a render never waits on a cell that
   is still queued behind it, and memo waits therefore cannot
   deadlock. *)
let run_parallel ~jobs ~mu ~bufs scale prepared =
  let pool = Pool.create ~jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let cell_promises =
        List.concat_map
          (fun (_, owned, _) ->
            List.map
              (fun c -> Pool.submit pool (fun () -> run_cell ~mu ~bufs c))
              owned)
          prepared
      in
      let render_promises =
        List.map
          (fun eo -> Pool.submit pool (fun () -> render ~mu ~bufs scale eo))
          prepared
      in
      let outcomes = List.map Pool.await render_promises in
      (* Renders retry a failed cell's memo build themselves, so cell
         failures usually surface above; await anyway so none is
         silently dropped. *)
      List.iter Pool.await cell_promises;
      outcomes)

let run_entries ?jobs scale entries =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  match entries with
  | [] -> []
  | _ ->
      let saved_reporter = Logs.reporter () in
      let mu = Mutex.create () in
      let bufs : (int, Buffer.t) Hashtbl.t = Hashtbl.create 8 in
      let find_buf () =
        let did = (Domain.self () :> int) in
        Mutex.lock mu;
        let b = Hashtbl.find_opt bufs did in
        Mutex.unlock mu;
        b
      in
      Logs.set_reporter (buffering_reporter ~find_buf);
      Fun.protect
        ~finally:(fun () -> Logs.set_reporter saved_reporter)
        (fun () ->
          let prepared = prepare scale entries in
          (* One effective worker means no parallelism to win: skip the
             pool entirely rather than pay domain spawn + stop-the-world
             rendezvous for a second live domain. *)
          let outcomes =
            if Pool.effective_jobs jobs <= 1 then
              run_sequential ~mu ~bufs scale prepared
            else run_parallel ~jobs ~mu ~bufs scale prepared
          in
          (* Both paths have awaited every cell by now, so shared
             spans are final. *)
          attach_shared prepared outcomes)

let print_outcome o =
  print_string o.output;
  if o.logs <> "" then print_string o.logs;
  Printf.printf "[%s: %.1fs]\n\n%!" o.o_entry.id o.wall
