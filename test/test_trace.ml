(* Tests for the workload generators, failure traces, and task
   segmentation. *)

module Op = D2_trace.Op
module Harvard = D2_trace.Harvard
module Hp = D2_trace.Hp
module Web = D2_trace.Web
module Webcache = D2_trace.Webcache
module Failure = D2_trace.Failure
module Task = D2_trace.Task
module Namespace = D2_trace.Namespace
module Rng = D2_util.Rng

let small_harvard =
  lazy
    (Harvard.generate ~rng:(Rng.create 42)
       ~params:
         {
           Harvard.default_params with
           Harvard.users = 10;
           target_bytes = 8 * 1024 * 1024;
           days = 2.0;
         }
       ())

let small_web =
  lazy
    (Web.generate ~rng:(Rng.create 43)
       ~params:
         { Web.default_params with Web.clients = 10; days = 2.0; domains = 50 }
       ())

(* {1 Op} *)

let test_blocks_of_bytes () =
  Alcotest.(check int) "0 -> 1" 1 (Op.blocks_of_bytes 0);
  Alcotest.(check int) "1 -> 1" 1 (Op.blocks_of_bytes 1);
  Alcotest.(check int) "8192 -> 1" 1 (Op.blocks_of_bytes 8192);
  Alcotest.(check int) "8193 -> 2" 2 (Op.blocks_of_bytes 8193);
  Alcotest.(check int) "3 blocks" 3 (Op.blocks_of_bytes (2 * 8192 + 1))

let test_validate_catches () =
  let base_op =
    { Op.time = 0.0; user = 0; path = "/f"; file = 0; block = 0; kind = Op.Read; bytes = 10 }
  in
  let mk ops = { Op.name = "t"; duration = 10.0; users = 1; ops; initial_files = [||] } in
  Op.validate (mk [| base_op |]);
  let bad_order = mk [| { base_op with Op.time = 5.0 }; { base_op with Op.time = 1.0 } |] in
  Alcotest.check_raises "out of order" (Invalid_argument "trace t: op 1 out of order")
    (fun () -> Op.validate bad_order);
  let bad_user = mk [| { base_op with Op.user = 3 } |] in
  Alcotest.check_raises "bad user" (Invalid_argument "trace t: op 0 bad user 3")
    (fun () -> Op.validate bad_user);
  let bad_bytes = mk [| { base_op with Op.bytes = 9000 } |] in
  Alcotest.check_raises "bad bytes" (Invalid_argument "trace t: op 0 bad byte count 9000")
    (fun () -> Op.validate bad_bytes)

(* {1 Namespace} *)

let test_namespace_structure () =
  let ns =
    Namespace.generate ~rng:(Rng.create 1) ~users:5 ~target_bytes:(4 * 1024 * 1024) ()
  in
  Alcotest.(check bool) "bytes near target" true
    (let b = Namespace.total_bytes ns in
     b > 2 * 1024 * 1024);
  Alcotest.(check bool) "has files" true (Namespace.file_count ns > 20);
  (* Every user owns at least one directory, and shared dirs exist. *)
  for u = 0 to 4 do
    let dirs = Namespace.dirs_for_user ns ~user:u in
    Alcotest.(check bool) "user sees dirs" true (Array.length dirs > 0)
  done;
  let shared =
    Array.exists (fun o -> o = -1) ns.Namespace.dir_owner
  in
  Alcotest.(check bool) "shared dirs" true shared;
  (* The deep-path chain exceeds 12 levels. *)
  let deep = Array.exists (fun d -> d > 12) ns.Namespace.dir_depth in
  Alcotest.(check bool) "deep chain present" true deep

let test_namespace_file_dir_consistency () =
  let ns =
    Namespace.generate ~rng:(Rng.create 2) ~users:3 ~target_bytes:(2 * 1024 * 1024) ()
  in
  Array.iteri
    (fun i (info : Op.file_info) ->
      let dir = ns.Namespace.file_dir.(i) in
      let dir_path = ns.Namespace.dirs.(dir) in
      let plen = String.length dir_path in
      Alcotest.(check string) "file path under its dir" dir_path
        (String.sub info.Op.file_path 0 plen))
    ns.Namespace.files

(* {1 Harvard} *)

let test_harvard_valid () = Op.validate (Lazy.force small_harvard)

let test_harvard_reads_dominate () =
  let t = Lazy.force small_harvard in
  let reads = Op.count_kind t Op.Read in
  let writes = Op.count_kind t Op.Write + Op.count_kind t Op.Create in
  Alcotest.(check bool) "reads >> writes" true (reads > 5 * writes)

let test_harvard_replay_consistent () =
  (* Every read touches a block that exists at that moment: present
     initially or created earlier, and not deleted more than the
     removal delay earlier. *)
  let t = Lazy.force small_harvard in
  let live : (int * int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let file_blocks : (int, int list ref) Hashtbl.t = Hashtbl.create 256 in
  Array.iter
    (fun (fi : Op.file_info) ->
      let blocks = ref [] in
      for b = 0 to Op.blocks_of_bytes fi.Op.file_bytes - 1 do
        Hashtbl.replace live (fi.Op.file_id, b) ();
        blocks := b :: !blocks
      done;
      Hashtbl.replace file_blocks fi.Op.file_id blocks)
    t.Op.initial_files;
  let bad = ref 0 in
  Array.iter
    (fun (o : Op.op) ->
      match o.Op.kind with
      | Op.Create | Op.Write ->
          Hashtbl.replace live (o.Op.file, o.Op.block) ();
          let blocks =
            match Hashtbl.find_opt file_blocks o.Op.file with
            | Some b -> b
            | None ->
                let b = ref [] in
                Hashtbl.replace file_blocks o.Op.file b;
                b
          in
          blocks := o.Op.block :: !blocks
      | Op.Delete ->
          (match Hashtbl.find_opt file_blocks o.Op.file with
          | Some blocks -> List.iter (fun b -> Hashtbl.remove live (o.Op.file, b)) !blocks
          | None -> ())
      | Op.Read -> if not (Hashtbl.mem live (o.Op.file, o.Op.block)) then incr bad)
    t.Op.ops;
  let reads = Op.count_kind t Op.Read in
  Alcotest.(check bool)
    (Printf.sprintf "stale reads %d of %d below 0.1%%" !bad reads)
    true
    (float_of_int !bad < 0.001 *. float_of_int reads)

let test_harvard_daily_churn () =
  let t = Lazy.force small_harvard in
  let total = Op.total_initial_bytes t in
  let written = Array.make 3 0 in
  Array.iter
    (fun (o : Op.op) ->
      match o.Op.kind with
      | Op.Write | Op.Create ->
          let d = int_of_float (o.Op.time /. 86400.0) in
          if d < 3 then written.(d) <- written.(d) + o.Op.bytes
      | Op.Read | Op.Delete -> ())
    t.Op.ops;
  (* Weekday churn within a loose band around the 15% parameter. *)
  let ratio = float_of_int written.(0) /. float_of_int total in
  Alcotest.(check bool) (Printf.sprintf "day-0 churn %.2f in [0.03, 0.5]" ratio) true
    (ratio > 0.03 && ratio < 0.5)

let test_harvard_determinism () =
  let p =
    { Harvard.default_params with Harvard.users = 5; target_bytes = 2 * 1024 * 1024; days = 1.0 }
  in
  let a = Harvard.generate ~rng:(Rng.create 9) ~params:p () in
  let b = Harvard.generate ~rng:(Rng.create 9) ~params:p () in
  Alcotest.(check int) "same op count" (Array.length a.Op.ops) (Array.length b.Op.ops);
  Alcotest.(check bool) "same ops" true (a.Op.ops = b.Op.ops)

(* {1 HP} *)

let test_hp_valid_and_ordered_names () =
  let t =
    Hp.generate ~rng:(Rng.create 3)
      ~params:{ Hp.default_params with Hp.apps = 5; days = 1.0; disk_blocks = 4096 }
      ()
  in
  Op.validate t;
  (* Block names sort like block numbers. *)
  Alcotest.(check bool) "padded names sort numerically" true
    (compare (Hp.block_name 999) (Hp.block_name 1000) < 0);
  (* All ops reference blocks within the disk. *)
  Array.iter
    (fun (o : Op.op) ->
      let b = int_of_string o.Op.path in
      if b < 0 || b >= 4096 then Alcotest.fail "block out of disk")
    t.Op.ops

let test_hp_sequential_runs () =
  let t =
    Hp.generate ~rng:(Rng.create 3)
      ~params:{ Hp.default_params with Hp.apps = 2; days = 1.0; disk_blocks = 4096 }
      ()
  in
  (* Consecutive ops by the same app are often adjacent disk blocks. *)
  let adjacent = ref 0 and total = ref 0 in
  let last : (int, int) Hashtbl.t = Hashtbl.create 4 in
  Array.iter
    (fun (o : Op.op) ->
      let b = int_of_string o.Op.path in
      (match Hashtbl.find_opt last o.Op.user with
      | Some prev when b = prev + 1 -> incr adjacent
      | _ -> ());
      incr total;
      Hashtbl.replace last o.Op.user b)
    t.Op.ops;
  Alcotest.(check bool) "mostly sequential" true
    (float_of_int !adjacent > 0.5 *. float_of_int !total)

(* {1 Web + Webcache} *)

let test_web_valid_reversed_names () =
  let t = Lazy.force small_web in
  Op.validate t;
  Alcotest.(check string) "reversal" "com.yahoo.www/index.html"
    (Web.reversed_name ~domain:"www.yahoo.com" ~page:"index.html");
  Array.iter
    (fun (fi : Op.file_info) ->
      if String.length fi.Op.file_path < 4 || String.sub fi.Op.file_path 0 4 <> "com." then
        Alcotest.fail ("unreversed name: " ^ fi.Op.file_path))
    t.Op.initial_files

let test_webcache_insert_before_read () =
  let t = Webcache.of_web_trace (Lazy.force small_web) in
  Op.validate t;
  let inserted = Hashtbl.create 256 in
  Array.iter
    (fun (o : Op.op) ->
      match o.Op.kind with
      | Op.Create -> Hashtbl.replace inserted (o.Op.file, o.Op.block) ()
      | Op.Read ->
          if not (Hashtbl.mem inserted (o.Op.file, o.Op.block)) then
            Alcotest.fail "cache read before insert"
      | Op.Delete -> ()
      | Op.Write -> Alcotest.fail "cache has no overwrites")
    t.Op.ops

let test_webcache_evictions_after_ttl () =
  let ttl = 3600.0 in
  let t = Webcache.of_web_trace ~evict_ttl:ttl (Lazy.force small_web) in
  (* Every delete happens at least ttl after the file's last insert/read. *)
  let last_touch : (int, float) Hashtbl.t = Hashtbl.create 256 in
  Array.iter
    (fun (o : Op.op) ->
      match o.Op.kind with
      | Op.Create | Op.Read -> Hashtbl.replace last_touch o.Op.file o.Op.time
      | Op.Delete -> (
          match Hashtbl.find_opt last_touch o.Op.file with
          | None -> Alcotest.fail "delete of never-seen object"
          | Some t0 ->
              if o.Op.time -. t0 < ttl -. 1e-6 then Alcotest.fail "early eviction")
      | Op.Write -> ())
    t.Op.ops;
  Alcotest.(check bool) "has evictions" true (Op.count_kind t Op.Delete > 0)

let test_webcache_churn_high () =
  let t = Webcache.of_web_trace (Lazy.force small_web) in
  let creates = Op.count_kind t Op.Create in
  let reads = Op.count_kind t Op.Read in
  (* A cooperative cache has a large one-hit-wonder tail: inserts are
     a substantial share of all accesses. *)
  Alcotest.(check bool) "high insert share" true
    (float_of_int creates > 0.1 *. float_of_int (creates + reads))

(* {1 Failure traces} *)

let test_failure_valid () =
  let f = Failure.generate ~rng:(Rng.create 4) ~n:40 ~duration:86400.0 () in
  Failure.validate f;
  Alcotest.(check bool) "has events" true (Array.length f.Failure.events > 0);
  let up0 = Failure.up_fraction_at f 0.0 in
  Alcotest.(check bool) "starts mostly up" true (up0 > 0.9)

let test_failure_correlated_dip () =
  let params =
    { Failure.default_params with Failure.correlated_events = 1; correlated_fraction = 0.5 }
  in
  let f = Failure.generate ~rng:(Rng.create 5) ~n:40 ~duration:(2.0 *. 86400.0) ~params () in
  (* Scan for the dip. *)
  let worst = ref 1.0 in
  let t = ref 0.0 in
  while !t < 2.0 *. 86400.0 do
    let u = Failure.up_fraction_at f !t in
    if u < !worst then worst := u;
    t := !t +. 1800.0
  done;
  Alcotest.(check bool) (Printf.sprintf "mass dip observed (%.2f)" !worst) true
    (!worst < 0.7)

(* {1 Task segmentation} *)

let mk_ops specs =
  Array.of_list
    (List.map
       (fun (time, user) ->
         { Op.time; user; path = "/f"; file = 0; block = 0; kind = Op.Read; bytes = 1 })
       specs)

let mk_trace specs users =
  { Op.name = "t"; duration = 1000.0; users; ops = mk_ops specs; initial_files = [||] }

let test_task_gap_split () =
  let t = mk_trace [ (0.0, 0); (1.0, 0); (2.0, 0); (10.0, 0); (11.0, 0) ] 1 in
  let tasks = Task.segment t ~inter:5.0 () in
  Alcotest.(check int) "two tasks" 2 (Array.length tasks);
  Alcotest.(check int) "first has 3" 3 (Array.length tasks.(0).Task.ops);
  Alcotest.(check int) "second has 2" 2 (Array.length tasks.(1).Task.ops)

let test_task_users_independent () =
  let t = mk_trace [ (0.0, 0); (0.5, 1); (1.0, 0); (1.5, 1) ] 2 in
  let tasks = Task.segment t ~inter:5.0 () in
  Alcotest.(check int) "one task per user" 2 (Array.length tasks)

let test_task_max_duration () =
  let specs = List.init 20 (fun i -> (float_of_int i *. 30.0, 0)) in
  let t = mk_trace specs 1 in
  let tasks = Task.segment t ~inter:60.0 ~max_duration:120.0 () in
  Alcotest.(check bool) "split by cap" true (Array.length tasks > 1);
  Array.iter
    (fun (tk : Task.t) ->
      Alcotest.(check bool) "within cap+1op" true (tk.Task.stop -. tk.Task.start <= 150.0))
    tasks

let test_task_labels_partition () =
  let t = Lazy.force small_harvard in
  let tasks, labels = Task.segment_labeled t ~inter:5.0 () in
  Alcotest.(check int) "labels cover all ops" (Array.length t.Op.ops) (Array.length labels);
  let counts = Array.make (Array.length tasks) 0 in
  Array.iter
    (fun l ->
      if l < 0 || l >= Array.length tasks then Alcotest.fail "label out of range";
      counts.(l) <- counts.(l) + 1)
    labels;
  Array.iteri
    (fun i (tk : Task.t) ->
      Alcotest.(check int) "task size matches labels" (Array.length tk.Task.ops) counts.(i))
    tasks

let test_task_distinct_counts () =
  let ops =
    [|
      { Op.time = 0.0; user = 0; path = "/a"; file = 1; block = 0; kind = Op.Read; bytes = 1 };
      { Op.time = 0.1; user = 0; path = "/a"; file = 1; block = 0; kind = Op.Read; bytes = 1 };
      { Op.time = 0.2; user = 0; path = "/a"; file = 1; block = 1; kind = Op.Read; bytes = 1 };
      { Op.time = 0.3; user = 0; path = "/b"; file = 2; block = 0; kind = Op.Read; bytes = 1 };
    |]
  in
  let t = { Op.name = "t"; duration = 10.0; users = 1; ops; initial_files = [||] } in
  let tasks = Task.segment t ~inter:5.0 () in
  Alcotest.(check int) "blocks dedup" 3 (Task.distinct_blocks tasks.(0));
  Alcotest.(check int) "files dedup" 2 (Task.distinct_files tasks.(0))

let test_access_groups_think () =
  let t = mk_trace [ (0.0, 0); (0.5, 0); (2.0, 0) ] 1 in
  let groups = Task.access_groups ~think:1.0 t in
  Alcotest.(check int) "think splits" 2 (Array.length groups)

(* {1 Plan compilation} *)

module Plan = D2_trace.Plan
module Keymap = D2_trace.Keymap
module Key = D2_keyspace.Key

let test_plan_columns_match_trace () =
  let t = Lazy.force small_harvard in
  let plan = Plan.of_trace t in
  Alcotest.(check bool) "of_trace cached" true (Plan.of_trace t == plan);
  Alcotest.(check int) "length" (Array.length t.Op.ops) (Plan.length plan);
  Array.iteri
    (fun i (o : Op.op) ->
      if o.Op.time <> plan.Plan.times.(i)
         || o.Op.user <> plan.Plan.users.(i)
         || o.Op.file <> plan.Plan.files.(i)
         || o.Op.block <> plan.Plan.blocks.(i)
         || o.Op.bytes <> plan.Plan.bytes.(i)
         || o.Op.kind <> Plan.kind_of_code plan.Plan.kinds.(i)
         || o.Op.path <> Plan.path plan i
      then Alcotest.failf "column mismatch at op %d" i)
    t.Op.ops;
  List.iter
    (fun k -> Alcotest.(check bool) "kind roundtrip" true (Plan.kind_of_code (Plan.kind_code k) = k))
    [ Op.Read; Op.Write; Op.Create; Op.Delete ]

let test_plan_init_grid () =
  let t = Lazy.force small_harvard in
  let plan = Plan.of_trace t in
  let nf = Array.length t.Op.initial_files in
  Alcotest.(check int) "offsets length" (nf + 1) (Array.length plan.Plan.init_offsets);
  (* Per-block sizes follow the file-size formula computed from the op
     records directly: full blocks except a last-block remainder (a full block when the size
     divides evenly). *)
  let expected_size bytes b =
    let nblocks = Op.blocks_of_bytes bytes in
    if b = nblocks - 1 then
      let rem = bytes - (b * Op.block_size) in
      if rem = 0 then Op.block_size else rem
    else Op.block_size
  in
  Array.iteri
    (fun fi (f : Op.file_info) ->
      let off = plan.Plan.init_offsets.(fi) in
      let nblocks = Op.blocks_of_bytes f.Op.file_bytes in
      Alcotest.(check int) "block count" nblocks (plan.Plan.init_offsets.(fi + 1) - off);
      for b = 0 to nblocks - 1 do
        if plan.Plan.init_sizes.(off + b) <> expected_size f.Op.file_bytes b then
          Alcotest.failf "init size mismatch file %d block %d" fi b
      done)
    t.Op.initial_files

(* Precomputed keys must be exactly what a fresh keymap walk produces —
   initial files first, then ops in trace order, reads keyed only under
   Reads_and_writes (slot assignment is first-touch, so the policy
   changes D2 keys, not just which ops get one). *)
let test_plan_keys_match_keymap () =
  let t = Lazy.force small_harvard in
  let plan = Plan.of_trace t in
  List.iter
    (fun (mode, policy) ->
      let keys = Plan.replay_keys plan ~mode ~policy in
      let km = Keymap.create mode ~volume:"vol" in
      Array.iteri
        (fun fi (f : Op.file_info) ->
          let off = plan.Plan.init_offsets.(fi) in
          for b = 0 to Op.blocks_of_bytes f.Op.file_bytes - 1 do
            let expect = Keymap.key_of km ~path:f.Op.file_path ~block:b in
            if not (Key.equal keys.Plan.init_keys.(off + b) expect) then
              Alcotest.failf "init key mismatch file %d block %d" fi b
          done)
        t.Op.initial_files;
      Array.iteri
        (fun i (o : Op.op) ->
          let keyed =
            match o.Op.kind with
            | Op.Write | Op.Create -> true
            | Op.Read -> policy = Plan.Reads_and_writes
            | Op.Delete -> false
          in
          let expect =
            if keyed then Keymap.key_of km ~path:o.Op.path ~block:o.Op.block
            else Key.zero
          in
          if not (Key.equal keys.Plan.op_keys.(i) expect) then
            Alcotest.failf "op key mismatch at %d" i)
        t.Op.ops)
    [
      (Keymap.D2, Plan.Reads_and_writes);
      (Keymap.D2, Plan.Writes_only);
      (Keymap.Traditional, Plan.Reads_and_writes);
      (Keymap.Traditional_file, Plan.Writes_only);
    ]

(* {1 Serialization} *)

let test_serialize_roundtrip () =
  let t = Lazy.force small_harvard in
  let path = Filename.temp_file "d2trace" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      D2_trace.Serialize.save_file t path;
      let t' = D2_trace.Serialize.load_file path in
      Alcotest.(check string) "name" t.Op.name t'.Op.name;
      Alcotest.(check int) "users" t.Op.users t'.Op.users;
      Alcotest.(check int) "files" (Array.length t.Op.initial_files)
        (Array.length t'.Op.initial_files);
      Alcotest.(check bool) "files equal" true (t.Op.initial_files = t'.Op.initial_files);
      Alcotest.(check int) "ops" (Array.length t.Op.ops) (Array.length t'.Op.ops);
      Alcotest.(check bool) "ops equal" true (t.Op.ops = t'.Op.ops))

let prop_serialize_roundtrip_random =
  (* Random miniature traces round-trip exactly (paths without
     separators, times non-decreasing). *)
  QCheck.Test.make ~name:"random trace roundtrip" ~count:50
    QCheck.(list_of_size Gen.(int_range 0 30) (triple (int_bound 3) (int_bound 4) (int_bound 2)))
    (fun specs ->
      let time = ref 0.0 in
      let ops =
        Array.of_list
          (List.map
             (fun (user, block, kindi) ->
               time := !time +. 0.37;
               {
                 Op.time = !time;
                 user;
                 path = Printf.sprintf "/p%d" user;
                 file = user;
                 block;
                 kind = (match kindi with 0 -> Op.Read | 1 -> Op.Write | _ -> Op.Create);
                 bytes = 1 + block;
               })
             specs)
      in
      let t =
        { Op.name = "prop"; duration = !time +. 1.0; users = 4; ops; initial_files = [||] }
      in
      let path = Filename.temp_file "d2prop" ".tsv" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          D2_trace.Serialize.save_file t path;
          let t' = D2_trace.Serialize.load_file path in
          t'.Op.ops = t.Op.ops && t'.Op.duration = t.Op.duration))

let test_serialize_rejects_garbage () =
  let path = Filename.temp_file "d2trace" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a trace\n";
      close_out oc;
      Alcotest.(check bool) "raises" true
        (try
           ignore (D2_trace.Serialize.load_file path);
           false
         with Invalid_argument _ -> true))

let () =
  Alcotest.run "d2_trace"
    [
      ( "op",
        [
          Alcotest.test_case "blocks_of_bytes" `Quick test_blocks_of_bytes;
          Alcotest.test_case "validate" `Quick test_validate_catches;
        ] );
      ( "namespace",
        [
          Alcotest.test_case "structure" `Quick test_namespace_structure;
          Alcotest.test_case "file/dir consistency" `Quick test_namespace_file_dir_consistency;
        ] );
      ( "harvard",
        [
          Alcotest.test_case "valid" `Quick test_harvard_valid;
          Alcotest.test_case "reads dominate" `Quick test_harvard_reads_dominate;
          Alcotest.test_case "replay consistent" `Quick test_harvard_replay_consistent;
          Alcotest.test_case "daily churn" `Quick test_harvard_daily_churn;
          Alcotest.test_case "deterministic" `Quick test_harvard_determinism;
        ] );
      ( "hp",
        [
          Alcotest.test_case "valid + names" `Quick test_hp_valid_and_ordered_names;
          Alcotest.test_case "sequential runs" `Quick test_hp_sequential_runs;
        ] );
      ( "web",
        [
          Alcotest.test_case "valid + reversed" `Quick test_web_valid_reversed_names;
          Alcotest.test_case "webcache insert-before-read" `Quick test_webcache_insert_before_read;
          Alcotest.test_case "webcache eviction ttl" `Quick test_webcache_evictions_after_ttl;
          Alcotest.test_case "webcache churn" `Quick test_webcache_churn_high;
        ] );
      ( "failure",
        [
          Alcotest.test_case "valid" `Quick test_failure_valid;
          Alcotest.test_case "correlated dip" `Quick test_failure_correlated_dip;
        ] );
      ( "plan",
        [
          Alcotest.test_case "columns match trace" `Quick test_plan_columns_match_trace;
          Alcotest.test_case "init grid" `Quick test_plan_init_grid;
          Alcotest.test_case "keys match keymap" `Quick test_plan_keys_match_keymap;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "roundtrip" `Quick test_serialize_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_serialize_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_serialize_roundtrip_random;
        ] );
      ( "task",
        [
          Alcotest.test_case "gap split" `Quick test_task_gap_split;
          Alcotest.test_case "users independent" `Quick test_task_users_independent;
          Alcotest.test_case "max duration" `Quick test_task_max_duration;
          Alcotest.test_case "labels partition" `Quick test_task_labels_partition;
          Alcotest.test_case "distinct counts" `Quick test_task_distinct_counts;
          Alcotest.test_case "access groups" `Quick test_access_groups_think;
        ] );
    ]
