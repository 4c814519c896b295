module Rng = D2_util.Rng
module Zipf = D2_util.Zipf
module Pool = D2_util.Pool
module Key = D2_keyspace.Key
module Encoding = D2_keyspace.Encoding
module Range_arena = D2_cache.Range_arena
module Engine = D2_simnet.Engine

type config = {
  clients : int;
  shards : int;
  nodes : int;
  ways : int;
  files : int;
  blocks : int;
  burst : int;
  duration : float;
  seed : int;
  jobs : int;
  scenario : Scenario.t;
}

let default_config scenario =
  {
    clients = 1_000_000;
    shards = 4;
    nodes = 64;
    ways = 8;
    files = 4096;
    blocks = 16;
    burst = 8;
    duration = 30.0;
    seed = 42;
    jobs = Pool.default_jobs ();
    scenario;
  }

type report = {
  ops : int;
  class_stats : (int * int * int * int) array;
  hist : int array;
  owner_ops : int array;
  owner_lookups : int array;
  churn_events : int;
  virtual_time : float;
}

(* Positions fit the arena's 19-bit range-id field: key rank i maps to
   2i+1, node boundaries to even positions, so the largest position is
   2 * nkeys. *)
let max_keys = 262_142

let validate cfg =
  let sc = cfg.scenario in
  let fail msg = invalid_arg ("Fleet.run: " ^ msg) in
  if cfg.clients < 1 then fail "clients must be positive";
  if cfg.shards < 1 || cfg.shards > cfg.clients then
    fail "shards must be in 1..clients";
  if cfg.nodes < 2 then fail "nodes must be >= 2";
  if cfg.ways < 1 || cfg.ways > 64 then fail "ways must be in 1..64";
  if cfg.files < 1 || cfg.files > 65_535 then fail "files must be in 1..65535";
  if cfg.blocks < 1 then fail "blocks must be positive";
  if cfg.files * cfg.blocks > max_keys then fail "files * blocks too large";
  if cfg.burst < 1 then fail "burst must be positive";
  if cfg.duration <= 0.0 then fail "duration must be positive";
  if cfg.jobs < 1 then fail "jobs must be positive";
  if sc.Scenario.think <= 0.0 then fail "think must be positive";
  if sc.Scenario.zipf_s < 0.0 then fail "zipf_s must be non-negative";
  if sc.Scenario.crowd_every < 1 then fail "crowd_every must be positive";
  if sc.Scenario.crowd_think <= 0.0 then fail "crowd_think must be positive";
  if sc.Scenario.flash_files < 1 || sc.Scenario.flash_files > cfg.files then
    fail "flash_files must be in 1..files";
  if sc.Scenario.flash_at < 0.0 then fail "flash_at must be non-negative";
  if sc.Scenario.day <= 0.0 then fail "day must be positive";
  if sc.Scenario.amplitude < 0.0 || sc.Scenario.amplitude >= 1.0 then
    fail "amplitude must be in [0, 1)";
  if sc.Scenario.churn_per_day < 0.0 then fail "churn_per_day non-negative"

(* Wheel tick sized to a few cells per slot: mean per-shard wake
   interval is think / (clients / shards). *)
let granularity cfg =
  let g =
    4.0 *. cfg.scenario.Scenario.think *. float_of_int cfg.shards
    /. float_of_int cfg.clients
  in
  if g < 1e-7 then 1e-7 else if g > 1.0 then 1.0 else g

type shard = {
  id : int;
  eng : Engine.t;
  rng : Rng.t;
  lo : int;  (* first client (inclusive) *)
  hi : int;  (* last client (exclusive) *)
  mutable tick : int;
  mutable ops : int;
  owner_ops : int array;
  owner_lookups : int array;
}

let run cfg =
  validate cfg;
  let sc = cfg.scenario in
  let root = Rng.create cfg.seed in
  let node_rng = Rng.split root in
  let churn_rng = Rng.split root in
  let shard_rngs =
    Array.init cfg.shards (fun _ -> Rng.create 0) (* placeholders *)
  in
  for s = 0 to cfg.shards - 1 do
    (* split in shard order so shard streams are independent of jobs *)
    shard_rngs.(s) <- Rng.split root
  done;

  (* {2 Key population}: one volume, [files] slot-addressed files of
     [blocks] blocks each, through the real D2 encoding so block
     adjacency in the namespace is adjacency on the ring. *)
  let nkeys = cfg.files * cfg.blocks in
  let vol = Encoding.volume_id "fleet0" in
  let keys =
    Array.init nkeys (fun i ->
        Encoding.of_slot_path ~volume:vol
          ~slots:[ (i / cfg.blocks) + 1 ]
          ~block:(Int64.of_int (i mod cfg.blocks))
          ~version:0l)
  in
  let order = Array.init nkeys Fun.id in
  Array.sort (fun a b -> Key.compare keys.(a) keys.(b)) order;
  let keypos = Array.make nkeys 0 in
  Array.iteri (fun rank i -> keypos.(i) <- (2 * rank) + 1) order;

  (* {2 Nodes}: boundaries sampled uniformly over the population, the
     post-defragmentation state the paper's balancer converges to.
     (Uniform ids over the whole 64-byte ring would be the cold,
     pre-balance cluster: the single volume is a sliver of the ring,
     so one node would own every key — degenerate for a cache and
     load study.) *)
  let node_pos = Array.make cfg.nodes 0 in
  for i = 0 to cfg.nodes - 1 do
    node_pos.(i) <- 2 * Rng.int node_rng (nkeys + 1)
  done;
  let up = Array.make cfg.nodes true in
  let up_count = ref cfg.nodes in

  let arena =
    Range_arena.create ~ways:cfg.ways
      ~classes:(Scenario.classes sc.Scenario.kind)
      ~shards:cfg.shards ~clients:cfg.clients ()
  in
  let rebuild_ranges () =
    let live = ref [] in
    for i = cfg.nodes - 1 downto 0 do
      if up.(i) then live := (node_pos.(i), i) :: !live
    done;
    let arr = Array.of_list !live in
    Array.sort
      (fun (p1, i1) (p2, i2) ->
        if p1 <> p2 then compare p1 p2 else compare i1 i2)
      arr;
    (* Nodes landing between the same two population keys share a
       position; the smallest id is the successor every key sees. *)
    let n = Array.length arr in
    let bounds = ref [] and owners = ref [] and last = ref (-1) in
    for i = n - 1 downto 0 do
      let p, idx = arr.(i) in
      if p <> !last then begin
        bounds := p :: !bounds;
        owners := idx :: !owners;
        last := p
      end
      else begin
        (* keep the first (smallest-id) owner at this position *)
        owners := idx :: List.tl !owners
      end
    done;
    Range_arena.set_ranges arena
      ~bounds:(Array.of_list !bounds)
      ~owners:(Array.of_list !owners)
  in
  rebuild_ranges ();

  (* {2 Workload tables} *)
  let main_zipf = Zipf.create ~n:cfg.files ~s:sc.Scenario.zipf_s in
  let crowd_zipf =
    if sc.Scenario.kind = Scenario.Flash_crowd then
      Some (Zipf.create ~n:sc.Scenario.flash_files ~s:sc.Scenario.zipf_s)
    else None
  in
  let drift_off = ref 0 in
  let drift_step =
    let s = cfg.files / 8 in
    if s < 1 then 1 else s
  in
  let flash = sc.Scenario.kind = Scenario.Flash_crowd in
  let diurnal = sc.Scenario.kind = Scenario.Diurnal in
  let is_crowd c = flash && c mod sc.Scenario.crowd_every = 0 in
  let class_of c = if is_crowd c then 1 else 0 in
  let omega = 2.0 *. Float.pi /. sc.Scenario.day in

  (* {2 Per-client columns}: current file and blocks left — everything
     else lives in the arena slots. *)
  let cur_file = Array.make cfg.clients 0 in
  let left = Array.make cfg.clients 0 in

  (* {2 Shards} *)
  let g = granularity cfg in
  let q = cfg.clients / cfg.shards and rem = cfg.clients mod cfg.shards in
  let shard_lo s = (s * q) + min s rem in
  let mk_shard id =
    let eng = Engine.create ~granularity:g () in
    let st =
      {
        id;
        eng;
        rng = shard_rngs.(id);
        lo = shard_lo id;
        hi = shard_lo (id + 1);
        tick = 0;
        ops = 0;
        owner_ops = Array.make cfg.nodes 0;
        owner_lookups = Array.make cfg.nodes 0;
      }
    in
    let handler = ref (fun (_ : int) (_ : int) -> ()) in
    let sink = Engine.register_sink eng (fun tag payload -> !handler tag payload) in
    (* One wake = one burst of sequential block reads.  Think time
       separates {e sessions} (files); blocks within a file stream
       with a short inter-burst gap, like a real client reading a
       file.  This also amortizes the wheel re-arm over [burst]
       probes — the engine is the expensive part of an op, the probe
       the cheap one. *)
    let step _tag client =
      let cls = class_of client in
      let rem = Array.unsafe_get left client in
      let f, rem =
        if rem = 0 then begin
          let rank =
            match crowd_zipf with
            | Some z when cls = 1 -> Zipf.sample z st.rng
            | _ -> Zipf.sample main_zipf st.rng
          in
          let f =
            let f = rank + !drift_off in
            if f >= cfg.files then f - cfg.files else f
          in
          Array.unsafe_set cur_file client f;
          (f, cfg.blocks)
        end
        else (Array.unsafe_get cur_file client, rem)
      in
      let burst = if rem < cfg.burst then rem else cfg.burst in
      let tick0 = st.tick in
      if tick0 + burst > Range_arena.max_tick then
        failwith "Fleet.run: shard op counter overflow (shorten the run)";
      let kbase = (f * cfg.blocks) + (cfg.blocks - rem) in
      for j = 0 to burst - 1 do
        let pos = Array.unsafe_get keypos (kbase + j) in
        let r =
          Range_arena.probe arena ~shard:st.id ~cls ~client ~pos
            ~tick:(tick0 + j + 1) ~cap:cfg.ways
        in
        let owner = r lsr 2 in
        Array.unsafe_set st.owner_ops owner
          (Array.unsafe_get st.owner_ops owner + 1);
        if r land 3 <> 0 then
          Array.unsafe_set st.owner_lookups owner
            (Array.unsafe_get st.owner_lookups owner + 1)
      done;
      st.tick <- tick0 + burst;
      st.ops <- st.ops + burst;
      let rem = rem - burst in
      Array.unsafe_set left client rem;
      let delay =
        if rem > 0 then
          (* mid-file: streaming gap, a small fraction of think *)
          Rng.exponential st.rng
            ~mean:
              ((if cls = 1 then sc.Scenario.crowd_think else sc.Scenario.think)
              *. 0.02)
        else if diurnal then
          let rate =
            1.0 +. (sc.Scenario.amplitude *. sin (omega *. Engine.now eng))
          in
          Rng.exponential st.rng ~mean:(sc.Scenario.think /. rate)
        else if cls = 1 then
          Rng.exponential st.rng ~mean:sc.Scenario.crowd_think
        else Rng.exponential st.rng ~mean:sc.Scenario.think
      in
      Engine.post_in eng ~sink ~delay ~tag:0 ~payload:client
    in
    handler := step;
    let init () =
      (* Stagger steady-state clients over one mean think; crowd
         clients stay dormant behind a single closure that posts their
         jittered wake-ups at the flash instant. *)
      for c = st.lo to st.hi - 1 do
        if not (is_crowd c) then
          Engine.post_in eng ~sink
            ~delay:(Rng.float st.rng sc.Scenario.think)
            ~tag:0 ~payload:c
      done;
      if flash && sc.Scenario.flash_at < cfg.duration then
        Engine.schedule eng ~at:sc.Scenario.flash_at (fun () ->
            for c = st.lo to st.hi - 1 do
              if is_crowd c then
                Engine.post_in eng ~sink
                  ~delay:(Rng.float st.rng sc.Scenario.crowd_think)
                  ~tag:0 ~payload:c
            done)
    in
    (st, init)
  in
  let shards = Array.init cfg.shards mk_shard in
  let shard_list = Array.to_list shards in

  (* {2 Churn schedule}: event times drawn up front; fail/revive
     alternation models rolling restarts (webcache churn: the whole
     cluster cycles once per day at the default rate). *)
  let churn_times =
    if (not diurnal) || sc.Scenario.churn_per_day <= 0.0 then [||]
    else begin
      let nev =
        int_of_float
          (ceil
             (sc.Scenario.churn_per_day *. float_of_int cfg.nodes
             *. cfg.duration /. sc.Scenario.day))
      in
      let a = Array.make nev 0.0 in
      for i = 0 to nev - 1 do
        a.(i) <- Rng.float churn_rng cfg.duration
      done;
      Array.sort compare a;
      a
    end
  in
  let pick_nth pred n =
    let seen = ref 0 and found = ref (-1) in
    for i = 0 to cfg.nodes - 1 do
      if !found < 0 && pred i then begin
        if !seen = n then found := i;
        incr seen
      end
    done;
    !found
  in
  let apply_churn k =
    let changed =
      if k land 1 = 0 then begin
        if !up_count > 2 then begin
          let v = pick_nth (fun i -> up.(i)) (Rng.int churn_rng !up_count) in
          up.(v) <- false;
          decr up_count;
          true
        end
        else false
      end
      else if !up_count < cfg.nodes then begin
        let v =
          pick_nth
            (fun i -> not up.(i))
            (Rng.int churn_rng (cfg.nodes - !up_count))
        in
        up.(v) <- true;
        incr up_count;
        true
      end
      else false
    in
    if sc.Scenario.drift then
      drift_off := (!drift_off + drift_step) mod cfg.files;
    if changed || sc.Scenario.drift then rebuild_ranges ()
  in

  (* {2 Drive}: shards advance independently between barriers; the
     range map only ever changes at a barrier, so probes never race a
     reconfiguration. *)
  let pool = Pool.create ~jobs:cfg.jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      ignore (Pool.map pool (fun (_, init) -> init ()) shard_list);
      let advance until_t =
        ignore
          (Pool.map pool
             (fun (st, _) -> Engine.run ~until:until_t st.eng)
             shard_list)
      in
      Array.iteri
        (fun k te ->
          advance te;
          apply_churn k)
        churn_times;
      advance cfg.duration);

  (* {2 Aggregate} in shard index order — byte-identical at any job
     count. *)
  let ops = Array.fold_left (fun a (st, _) -> a + st.ops) 0 shards in
  let classes = Scenario.classes sc.Scenario.kind in
  let class_stats =
    Array.init classes (fun cls -> Range_arena.stats arena ~cls)
  in
  let owner_ops = Array.make cfg.nodes 0 in
  let owner_lookups = Array.make cfg.nodes 0 in
  Array.iter
    (fun (st, _) ->
      for i = 0 to cfg.nodes - 1 do
        owner_ops.(i) <- owner_ops.(i) + st.owner_ops.(i);
        owner_lookups.(i) <- owner_lookups.(i) + st.owner_lookups.(i)
      done)
    shards;
  {
    ops;
    class_stats;
    hist = Range_arena.hist arena;
    owner_ops;
    owner_lookups;
    churn_events = Array.length churn_times;
    virtual_time = cfg.duration;
  }

let hit_rate_curve (r : report) =
  let ways = Array.length r.hist - 2 in
  let total = Array.fold_left ( + ) 0 r.hist in
  let curve = Array.make ways 0.0 in
  let cum = ref 0 in
  for c = 0 to ways - 1 do
    cum := !cum + r.hist.(c);
    curve.(c) <-
      (if total = 0 then 0.0 else float_of_int !cum /. float_of_int total)
  done;
  curve

let pct num den =
  if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let pp_report fmt ((cfg, r) : config * report) =
  let sc = cfg.scenario in
  Format.fprintf fmt
    "scenario=%s clients=%d shards=%d nodes=%d ways=%d files=%d blocks=%d \
     duration=%g seed=%d@\n"
    (Scenario.kind_to_string sc.Scenario.kind)
    cfg.clients cfg.shards cfg.nodes cfg.ways cfg.files cfg.blocks cfg.duration
    cfg.seed;
  Format.fprintf fmt "ops=%d churn_events=%d virtual_time=%g@\n" r.ops
    r.churn_events r.virtual_time;
  Array.iteri
    (fun cls (h, m, s, e) ->
      Format.fprintf fmt
        "class %d: probes=%d hits=%d (%.2f%%) misses=%d stale=%d evictions=%d@\n"
        cls (h + m) h
        (pct h (h + m))
        m s e)
    r.class_stats;
  let curve = hit_rate_curve r in
  Format.fprintf fmt "hit-rate vs cache size:@\n";
  Array.iteri
    (fun i v -> Format.fprintf fmt "  C=%d %.4f@\n" (i + 1) v)
    curve;
  let ways = Array.length r.hist - 2 in
  let total = Array.fold_left ( + ) 0 r.hist in
  Format.fprintf fmt "cold=%.2f%% stale=%.2f%%@\n"
    (pct r.hist.(ways) total)
    (pct r.hist.(ways + 1) total);
  (* Per-owner load concentration: how hard does the hottest node get
     hit relative to the mean. *)
  let nodes = Array.length r.owner_ops in
  let total_ops = Array.fold_left ( + ) 0 r.owner_ops in
  let mean = float_of_int total_ops /. float_of_int nodes in
  let sorted = Array.copy r.owner_ops in
  Array.sort (fun a b -> compare b a) sorted;
  let top k =
    let s = ref 0 in
    for i = 0 to min k nodes - 1 do
      s := !s + sorted.(i)
    done;
    !s
  in
  Format.fprintf fmt
    "owner ops: mean=%.1f max=%d max/mean=%.2f top1=%.2f%% top5=%.2f%%@\n" mean
    sorted.(0)
    (if total_ops = 0 then 0.0 else float_of_int sorted.(0) /. mean)
    (pct (top 1) total_ops) (pct (top 5) total_ops);
  let lk_total = Array.fold_left ( + ) 0 r.owner_lookups in
  let lk_sorted = Array.copy r.owner_lookups in
  Array.sort (fun a b -> compare b a) lk_sorted;
  Format.fprintf fmt "owner lookups: total=%d max=%d top1=%.2f%%@\n" lk_total
    lk_sorted.(0)
    (pct lk_sorted.(0) lk_total);
  (* Histogram of per-owner load relative to the mean. *)
  let buckets = [| 0; 0; 0; 0; 0; 0; 0 |] in
  Array.iter
    (fun o ->
      let i =
        if o = 0 then 0
        else
          let x = float_of_int o /. mean in
          if x <= 0.25 then 1
          else if x <= 0.5 then 2
          else if x <= 1.0 then 3
          else if x <= 2.0 then 4
          else if x <= 4.0 then 5
          else 6
      in
      buckets.(i) <- buckets.(i) + 1)
    r.owner_ops;
  Format.fprintf fmt "owner load histogram (x mean):@\n";
  let labels =
    [| "zero"; "<=1/4"; "<=1/2"; "<=1"; "<=2"; "<=4"; ">4" |]
  in
  Array.iteri
    (fun i n -> Format.fprintf fmt "  %-6s %d@\n" labels.(i) n)
    buckets
