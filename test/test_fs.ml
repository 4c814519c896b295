(* Tests for D2-FS: the block layout codec and the file system layer
   in all three key-policy modes. *)

module Layout = D2_fs.Layout
module Fs = D2_fs.Fs
module Cluster = D2_store.Cluster
module Engine = D2_simnet.Engine
module Key = D2_keyspace.Key
module Encoding = D2_keyspace.Encoding
module Rng = D2_util.Rng

let mk_cluster ?(n = 24) () =
  let engine = Engine.create () in
  let rng = Rng.create 17 in
  let ids = Array.init n (fun _ -> Key.random rng) in
  let cluster = Cluster.create ~engine ~config:Cluster.default_config ~ids in
  (engine, cluster)

let mk_fs ?(mode = Fs.D2) ?(write_back = false) () =
  let engine, cluster = mk_cluster () in
  let fs = Fs.create ~cluster ~volume:"t" ~mode ~write_back () in
  (engine, cluster, fs)

(* {1 Layout codec} *)

let sample_key = Encoding.of_slot_path ~volume:(Encoding.volume_id "t") ~slots:[ 1 ] ~block:1L ~version:0l

let test_layout_root_roundtrip () =
  let rb =
    {
      Layout.volume = "vol";
      root_dir_key = sample_key;
      root_dir_hash = Layout.content_hash "x";
      root_version = 5;
      signature =
        Layout.sign_root ~volume:"vol" ~root_dir_key:sample_key
          ~root_dir_hash:(Layout.content_hash "x") ~version:5;
    }
  in
  (match Layout.decode (Layout.encode (Layout.Root rb)) with
  | Layout.Root rb' ->
      Alcotest.(check string) "volume" rb.Layout.volume rb'.Layout.volume;
      Alcotest.(check int) "version" rb.Layout.root_version rb'.Layout.root_version;
      Alcotest.(check bool) "verifies" true (Layout.verify_root rb')
  | _ -> Alcotest.fail "wrong block type");
  (* Tampering breaks the signature. *)
  let forged = { rb with Layout.root_version = 6 } in
  Alcotest.(check bool) "forgery detected" false (Layout.verify_root forged)

let test_layout_dir_roundtrip () =
  let db =
    {
      Layout.dir_slots = [ 1; 5 ];
      dir_generation = 3;
      reserved_slots = [ 7; 2 ];
      entries =
        [
          {
            Layout.name = "a.txt";
            slot = 2;
            kind = Layout.File;
            child_key = sample_key;
            child_hash = Layout.content_hash "a";
          };
          {
            Layout.name = "sub";
            slot = 1;
            kind = Layout.Dir;
            child_key = sample_key;
            child_hash = Layout.content_hash "b";
          };
        ];
    }
  in
  match Layout.decode (Layout.encode (Layout.Directory db)) with
  | Layout.Directory db' ->
      Alcotest.(check (list int)) "slots" db.Layout.dir_slots db'.Layout.dir_slots;
      Alcotest.(check int) "generation" 3 db'.Layout.dir_generation;
      Alcotest.(check int) "entries" 2 (List.length db'.Layout.entries);
      Alcotest.(check bool) "entry equality" true (db = db')
  | _ -> Alcotest.fail "wrong block type"

let test_layout_inode_roundtrip () =
  let inline = { Layout.size = 5; generation = 0; contents = Layout.Inline "hello" } in
  (match Layout.decode (Layout.encode (Layout.Inode inline)) with
  | Layout.Inode i -> Alcotest.(check bool) "inline" true (i = inline)
  | _ -> Alcotest.fail "wrong type");
  let blocks =
    {
      Layout.size = 20000;
      generation = 2;
      contents = Layout.Blocks [ (sample_key, Layout.content_hash "b0") ];
    }
  in
  match Layout.decode (Layout.encode (Layout.Inode blocks)) with
  | Layout.Inode i -> Alcotest.(check bool) "blocks" true (i = blocks)
  | _ -> Alcotest.fail "wrong type"

let test_layout_data_and_errors () =
  (match Layout.decode (Layout.encode (Layout.Data "payload")) with
  | Layout.Data d -> Alcotest.(check string) "data" "payload" d
  | _ -> Alcotest.fail "wrong type");
  Alcotest.check_raises "garbage" (Invalid_argument "Layout.decode: malformed block")
    (fun () -> ignore (Layout.decode "\042nonsense"));
  Alcotest.check_raises "trailing junk" (Invalid_argument "Layout.decode: malformed block")
    (fun () -> ignore (Layout.decode (Layout.encode (Layout.Data "x") ^ "junk")))

let prop_layout_data_roundtrip =
  QCheck.Test.make ~name:"data blocks roundtrip" ~count:200 QCheck.string (fun s ->
      QCheck.assume (String.length s <= 8192);
      match Layout.decode (Layout.encode (Layout.Data s)) with
      | Layout.Data s' -> s = s'
      | _ -> false)

(* {1 File system, common behaviour across modes} *)

let all_modes = [ ("d2", Fs.D2); ("traditional", Fs.Traditional); ("file", Fs.Traditional_file) ]

let for_all_modes f () = List.iter (fun (name, mode) -> f name mode) all_modes

let test_write_read_roundtrip name mode =
  let _, _, fs = mk_fs ~mode () in
  let data = String.init 30_000 (fun i -> Char.chr (i mod 251)) in
  Fs.write_file fs ~path:"/a/b/file.bin" ~data;
  Alcotest.(check (option string)) (name ^ " roundtrip") (Some data)
    (Fs.read_file fs "/a/b/file.bin");
  Alcotest.(check (option int)) (name ^ " size") (Some 30_000) (Fs.file_size fs "/a/b/file.bin")

let test_missing_file name mode =
  let _, _, fs = mk_fs ~mode () in
  Alcotest.(check (option string)) (name ^ " missing") None (Fs.read_file fs "/nope");
  Alcotest.(check bool) (name ^ " exists false") false (Fs.exists fs "/nope")

let test_overwrite name mode =
  let e, c, fs = mk_fs ~mode () in
  Fs.write_file fs ~path:"/f" ~data:(String.make 20_000 'a');
  Fs.write_file fs ~path:"/f" ~data:"short";
  Alcotest.(check (option string)) (name ^ " overwrite") (Some "short") (Fs.read_file fs "/f");
  (* Old blocks are removed after the delayed removal. *)
  Engine.run e;
  Cluster.check_invariants c

let test_delete name mode =
  let e, c, fs = mk_fs ~mode () in
  Fs.write_file fs ~path:"/d/f" ~data:(String.make 9_000 'x');
  Fs.delete fs "/d/f";
  Alcotest.(check (option string)) (name ^ " gone") None (Fs.read_file fs "/d/f");
  Alcotest.check_raises (name ^ " double delete") Not_found (fun () -> Fs.delete fs "/d/f");
  Engine.run e;
  Cluster.check_invariants c

let test_rename name mode =
  let _, _, fs = mk_fs ~mode () in
  let data = String.make 25_000 'r' in
  Fs.write_file fs ~path:"/src/f.txt" ~data;
  let keys_before = Fs.file_block_keys fs "/src/f.txt" in
  Fs.rename fs ~src:"/src/f.txt" ~dst:"/dst/g.txt";
  Alcotest.(check (option string)) (name ^ " content survives") (Some data)
    (Fs.read_file fs "/dst/g.txt");
  Alcotest.(check (option string)) (name ^ " source gone") None (Fs.read_file fs "/src/f.txt");
  (* §4.2: the object keeps its original keys — zero data migration. *)
  let keys_after = Fs.file_block_keys fs "/dst/g.txt" in
  Alcotest.(check bool) (name ^ " keys unchanged") true (keys_before = keys_after)

let test_list_dir name mode =
  let _, _, fs = mk_fs ~mode () in
  Fs.mkdir fs "/d/sub";
  Fs.write_file fs ~path:"/d/b.txt" ~data:"b";
  Fs.write_file fs ~path:"/d/a.txt" ~data:"a";
  Alcotest.(check (list (pair string bool)))
    (name ^ " listing")
    [ ("a.txt", false); ("b.txt", false); ("sub", true) ]
    (Fs.list_dir fs "/d");
  Alcotest.(check bool) (name ^ " is_dir") true (Fs.is_dir fs "/d/sub");
  Alcotest.(check bool) (name ^ " file not dir") false (Fs.is_dir fs "/d/a.txt")

let test_inline_small_files name mode =
  let _, cluster, fs = mk_fs ~mode () in
  let before = Cluster.block_count cluster in
  Fs.write_file fs ~path:"/tiny" ~data:"x";
  (* Inline file: inode only (plus metadata path rewrites), no data
     block. Each write adds exactly: 1 inode + re-published root dir. *)
  let added = Cluster.block_count cluster - before in
  Alcotest.(check bool) (name ^ " no data block") true (added <= 2);
  Alcotest.(check (option string)) (name ^ " inline readback") (Some "x")
    (Fs.read_file fs "/tiny")

let test_empty_file name mode =
  let _, _, fs = mk_fs ~mode () in
  Fs.write_file fs ~path:"/empty" ~data:"";
  Alcotest.(check (option string)) (name ^ " empty") (Some "") (Fs.read_file fs "/empty");
  Alcotest.(check (option int)) (name ^ " size 0") (Some 0) (Fs.file_size fs "/empty")

let test_path_validation name mode =
  let _, _, fs = mk_fs ~mode () in
  Alcotest.check_raises (name ^ " relative")
    (Invalid_argument "Fs: path \"relative\" must be absolute") (fun () ->
      ignore (Fs.read_file fs "relative"));
  Alcotest.check_raises (name ^ " root as file")
    (Invalid_argument "Fs: the root directory is not a file") (fun () ->
      Fs.write_file fs ~path:"/" ~data:"x")

(* A scripted session over inline, single-block and multi-block files
   in nested directories, in every mode.  Live reads, range reads and
   snapshot reads share one walk and one block reader, so the fetch
   count of every step, a digest of every file's block keys and the
   cluster's block count are pinned, and a whole-file read must equal
   a range read over [0, size) and a snapshot read. *)
let pinned_fetches =
  [
    ("mkdir /a/b", 6); ("write /a/inline", 0); ("write /a/b/single", 2);
    ("write /a/b/c/multi", 7);
    ("read_file /a/inline", 3); ("file_size /a/inline", 0); ("read_range /a/inline", 0);
    ("snapshot", 0); ("snapshot_read /a/inline", 3);
    ("read_file /a/b/single", 5); ("file_size /a/b/single", 0);
    ("read_range /a/b/single", 0); ("snapshot", 0); ("snapshot_read /a/b/single", 5);
    ("read_file /a/b/c/multi", 9); ("file_size /a/b/c/multi", 0);
    ("read_range /a/b/c/multi", 0); ("snapshot", 0); ("snapshot_read /a/b/c/multi", 9);
    ("read_range /a/b/c/multi 9000+100", 6);
    ("list_dir /a/b", 3); ("list_dir /a", 0);
    ("snapshot", 0); ("snapshot_list /a/b", 3); ("snapshot_list /", 0);
    ("write_range /a/b/c/multi", 4); ("write_range /a/inline", 3);
    ("read_file /a/b/c/multi", 9); ("read_file /a/inline", 1);
  ]

let pinned_keys =
  [
    ("d2", "7013d7d2bb4dd5e544cbd2dd1a42e856");
    ("traditional", "1106447d038b76fd6be3e9be203da0fb");
    ("file", "539436c20f8116bf8e64f53d66ac6afd");
  ]

let test_read_paths_pinned name mode =
  let engine, cluster, fs = mk_fs ~mode () in
  let steps = ref [] in
  let step label f =
    let before = Fs.blocks_fetched fs in
    let r = f () in
    steps := (label, Fs.blocks_fetched fs - before) :: !steps;
    r
  in
  let cool () = Engine.run engine ~until:(Engine.now engine +. 31.0) in
  let files =
    [
      ("/a/inline", String.make 100 'i');
      ("/a/b/single", String.init 5_000 (fun i -> Char.chr (97 + (i mod 26))));
      ("/a/b/c/multi", String.init 30_000 (fun i -> Char.chr (i mod 251)));
    ]
  in
  step "mkdir /a/b" (fun () -> Fs.mkdir fs "/a/b");
  List.iter
    (fun (path, data) -> step ("write " ^ path) (fun () -> Fs.write_file fs ~path ~data))
    files;
  List.iter
    (fun (path, data) ->
      cool ();
      let whole = step ("read_file " ^ path) (fun () -> Fs.read_file fs path) in
      let size = step ("file_size " ^ path) (fun () -> Fs.file_size fs path) in
      let length = Option.get size in
      let range =
        step ("read_range " ^ path) (fun () -> Fs.read_range fs ~path ~offset:0 ~length)
      in
      cool ();
      let snap = step "snapshot" (fun () -> Fs.snapshot fs) in
      let snapped = step ("snapshot_read " ^ path) (fun () -> Fs.snapshot_read snap path) in
      Alcotest.(check (option string)) (name ^ " read_file " ^ path) (Some data) whole;
      Alcotest.(check (option string)) (name ^ " read_range " ^ path) whole range;
      Alcotest.(check (option string)) (name ^ " snapshot_read " ^ path) whole snapped)
    files;
  cool ();
  ignore
    (step "read_range /a/b/c/multi 9000+100" (fun () ->
         Fs.read_range fs ~path:"/a/b/c/multi" ~offset:9_000 ~length:100));
  cool ();
  let listing = step "list_dir /a/b" (fun () -> Fs.list_dir fs "/a/b") in
  Alcotest.(check (list (pair string bool))) (name ^ " list_dir")
    [ ("c", true); ("single", false) ] listing;
  ignore (step "list_dir /a" (fun () -> Fs.list_dir fs "/a"));
  cool ();
  let snap = step "snapshot" (fun () -> Fs.snapshot fs) in
  let snapped = step "snapshot_list /a/b" (fun () -> Fs.snapshot_list snap "/a/b") in
  Alcotest.(check (list (pair string bool))) (name ^ " snapshot_list") listing snapped;
  ignore (step "snapshot_list /" (fun () -> Fs.snapshot_list snap "/"));
  step "write_range /a/b/c/multi" (fun () ->
      Fs.write_range fs ~path:"/a/b/c/multi" ~offset:9_000 ~data:(String.make 9_000 'W'));
  step "write_range /a/inline" (fun () ->
      Fs.write_range fs ~path:"/a/inline" ~offset:90 ~data:"grow");
  cool ();
  ignore (step "read_file /a/b/c/multi" (fun () -> Fs.read_file fs "/a/b/c/multi"));
  ignore (step "read_file /a/inline" (fun () -> Fs.read_file fs "/a/inline"));
  Alcotest.(check (list (pair string int))) (name ^ " fetches per step") pinned_fetches
    (List.rev !steps);
  let keys =
    List.concat_map (fun (path, _) -> List.map Key.to_string (Fs.file_block_keys fs path)) files
  in
  Alcotest.(check string) (name ^ " block keys") (List.assoc name pinned_keys)
    (Digest.to_hex (Digest.string (String.concat "" keys)));
  Alcotest.(check int) (name ^ " blocks") 13 (Cluster.block_count cluster)

(* {1 D2-specific behaviour} *)

let test_d2_locality () =
  let _, cluster, fs = mk_fs ~mode:Fs.D2 () in
  Fs.write_file fs ~path:"/p/a" ~data:(String.make 20_000 'a');
  Fs.write_file fs ~path:"/p/b" ~data:(String.make 20_000 'b');
  Fs.write_file fs ~path:"/p/c" ~data:(String.make 20_000 'c');
  let holders path =
    List.concat_map
      (fun k -> Cluster.physical_holders cluster ~key:k)
      (Fs.file_block_keys fs path)
  in
  let all = List.sort_uniq compare (holders "/p/a" @ holders "/p/b" @ holders "/p/c") in
  (* One replica group = 3 nodes for the whole directory. *)
  Alcotest.(check int) "single replica group" 3 (List.length all)

let test_traditional_scatter () =
  let _, cluster, fs = mk_fs ~mode:Fs.Traditional () in
  for i = 0 to 5 do
    Fs.write_file fs ~path:(Printf.sprintf "/p/f%d" i) ~data:(String.make 20_000 'x')
  done;
  let all =
    List.sort_uniq compare
      (List.concat_map
         (fun i ->
           List.concat_map
             (fun k -> Cluster.physical_holders cluster ~key:k)
             (Fs.file_block_keys fs (Printf.sprintf "/p/f%d" i)))
         [ 0; 1; 2; 3; 4; 5 ])
  in
  Alcotest.(check bool) "spread widely" true (List.length all > 9)

let test_traditional_file_groups () =
  let _, cluster, fs = mk_fs ~mode:Fs.Traditional_file () in
  Fs.write_file fs ~path:"/p/big" ~data:(String.make 40_000 'x');
  let keys = Fs.file_block_keys fs "/p/big" in
  let holder_sets =
    List.map (fun k -> List.sort compare (Cluster.physical_holders cluster ~key:k)) keys
  in
  (* All blocks of one file share one replica set. *)
  List.iter
    (fun hs -> Alcotest.(check (list int)) "same set" (List.hd holder_sets) hs)
    holder_sets

let test_deep_paths () =
  let _, _, fs = mk_fs ~mode:Fs.D2 () in
  (* 16 levels: beyond the 12 positional slots, remainder-hashed. *)
  let path =
    "/" ^ String.concat "/" (List.init 16 (fun i -> Printf.sprintf "l%02d" i)) ^ "/f"
  in
  Fs.write_file fs ~path ~data:"deep";
  Alcotest.(check (option string)) "deep read" (Some "deep") (Fs.read_file fs path)

let test_integrity_detection () =
  (* Corrupt a stored data block; the read must fail the hash check. *)
  let _, cluster, fs = mk_fs ~mode:Fs.D2 () in
  Fs.write_file fs ~path:"/f" ~data:(String.make 20_000 'g');
  let keys = Fs.file_block_keys fs "/f" in
  let data_key = List.nth keys 1 in
  (* Overwrite the block in place with corrupted content. *)
  Cluster.put cluster ~key:data_key ~size:100
    ~data:(Layout.encode (Layout.Data "corrupted")) ();
  Alcotest.(check bool) "corruption detected" true
    (try
       ignore (Fs.read_file fs "/f");
       false
     with Fs.Integrity_violation _ -> true)

let test_write_back_semantics () =
  let engine, cluster, fs =
    let engine, cluster = mk_cluster () in
    (engine, cluster, Fs.create ~cluster ~volume:"wb" ~mode:Fs.D2 ~write_back:true ())
  in
  let before = Cluster.block_count cluster in
  Fs.write_file fs ~path:"/w" ~data:"buffered";
  (* Visible to the writer immediately, but not yet in the DHT. *)
  Alcotest.(check (option string)) "read-your-writes" (Some "buffered")
    (Fs.read_file fs "/w");
  Alcotest.(check int) "nothing committed yet" before (Cluster.block_count cluster);
  (* After 30 virtual seconds the write flushes. *)
  Engine.run engine ~until:(Engine.now engine +. 31.0);
  Alcotest.(check bool) "committed" true (Cluster.block_count cluster > before);
  Alcotest.(check (option string)) "durable" (Some "buffered") (Fs.read_file fs "/w")

let test_write_back_temp_file_absorbed () =
  let engine, cluster = mk_cluster () in
  let fs = Fs.create ~cluster ~volume:"wb" ~mode:Fs.D2 ~write_back:true () in
  let before = Cluster.block_count cluster in
  Fs.write_file fs ~path:"/tmp1" ~data:"temporary";
  Fs.delete fs "/tmp1";
  Engine.run engine ~until:(Engine.now engine +. 60.0);
  (* The temp file never reached the DHT (§3). *)
  Alcotest.(check int) "absorbed" before (Cluster.block_count cluster);
  Alcotest.(check (option string)) "gone" None (Fs.read_file fs "/tmp1")

let test_write_back_flush_forces () =
  let _, cluster = mk_cluster () in
  let fs = Fs.create ~cluster ~volume:"wb" ~mode:Fs.D2 ~write_back:true () in
  let before = Cluster.block_count cluster in
  Fs.write_file fs ~path:"/w" ~data:"x";
  Fs.flush fs;
  Alcotest.(check bool) "flushed now" true (Cluster.block_count cluster > before)

(* A splice into a pending write re-arms its 30 s commit. *)
let test_write_range_pending_commits () =
  let engine, cluster = mk_cluster () in
  let fs = Fs.create ~cluster ~volume:"wb" ~mode:Fs.D2 ~write_back:true () in
  let before = Cluster.block_count cluster in
  Fs.write_file fs ~path:"/p" ~data:(String.make 100 'a');
  Fs.write_range fs ~path:"/p" ~offset:50 ~data:"ZZ";
  Engine.run engine ~until:(Engine.now engine +. 31.0);
  Alcotest.(check bool) "committed by the timer" true (Cluster.block_count cluster > before);
  Alcotest.(check (option string)) "spliced" (Some "ZZ")
    (Fs.read_range fs ~path:"/p" ~offset:50 ~length:2)

(* Deleting a file whose overwrite is pending deletes the committed
   file too. *)
let test_delete_pending_overwrite () =
  let engine, cluster = mk_cluster () in
  let fs = Fs.create ~cluster ~volume:"wb" ~mode:Fs.D2 ~write_back:true () in
  Fs.write_file fs ~path:"/f" ~data:"old";
  Fs.flush fs;
  Fs.write_file fs ~path:"/f" ~data:"new";
  Fs.delete fs "/f";
  Alcotest.(check bool) "gone" false (Fs.exists fs "/f");
  Alcotest.(check (option string)) "unreadable" None (Fs.read_file fs "/f");
  Engine.run engine ~until:(Engine.now engine +. 60.0);
  Alcotest.(check bool) "still gone" false (Fs.exists fs "/f");
  Alcotest.(check (option string)) "still unreadable" None (Fs.read_file fs "/f");
  Alcotest.check_raises "double delete" Not_found (fun () -> Fs.delete fs "/f")

(* A pending file is a file to every path walk. *)
let test_mkdir_over_pending_file () =
  let engine, cluster = mk_cluster () in
  let fs = Fs.create ~cluster ~volume:"wb" ~mode:Fs.D2 ~write_back:true () in
  Fs.write_file fs ~path:"/p" ~data:"bytes";
  Alcotest.check_raises "mkdir refused" (Invalid_argument "Fs: /p is a file") (fun () ->
      Fs.mkdir fs "/p");
  Alcotest.check_raises "mkdir below refused" (Invalid_argument "Fs: /p is a file")
    (fun () -> Fs.mkdir fs "/p/q");
  Alcotest.(check bool) "not a directory" false (Fs.is_dir fs "/p");
  Engine.run engine ~until:(Engine.now engine +. 31.0);
  Alcotest.(check (option string)) "file committed" (Some "bytes") (Fs.read_file fs "/p")

let test_list_dir_shows_pending () =
  let _, cluster = mk_cluster () in
  let fs = Fs.create ~cluster ~volume:"wb" ~mode:Fs.D2 ~write_back:true () in
  Fs.mkdir fs "/d";
  Fs.write_file fs ~path:"/d/pending.txt" ~data:"p";
  Alcotest.(check (list (pair string bool))) "pending listed"
    [ ("pending.txt", false) ] (Fs.list_dir fs "/d")

let test_slot_reuse_after_delete () =
  let _, _, fs = mk_fs ~mode:Fs.D2 () in
  for i = 0 to 9 do
    Fs.write_file fs ~path:(Printf.sprintf "/d/f%d" i) ~data:"x"
  done;
  Fs.delete fs "/d/f3";
  (* The freed slot is reassigned without disturbing the others. *)
  Fs.write_file fs ~path:"/d/fresh" ~data:"y";
  Alcotest.(check (option string)) "old files fine" (Some "x") (Fs.read_file fs "/d/f7");
  Alcotest.(check (option string)) "new file fine" (Some "y") (Fs.read_file fs "/d/fresh")

let test_mkdir_idempotent () =
  let _, _, fs = mk_fs ~mode:Fs.D2 () in
  Fs.mkdir fs "/a/b/c";
  Fs.mkdir fs "/a/b/c";
  Fs.mkdir fs "/a/b";
  Alcotest.(check bool) "exists" true (Fs.is_dir fs "/a/b/c")

let test_rename_directory () =
  let _, _, fs = mk_fs ~mode:Fs.D2 () in
  Fs.write_file fs ~path:"/old/sub/f" ~data:"inside";
  Fs.rename fs ~src:"/old/sub" ~dst:"/newhome";
  Alcotest.(check (option string)) "moved subtree readable" (Some "inside")
    (Fs.read_file fs "/newhome/f");
  Alcotest.(check bool) "old path gone" false (Fs.exists fs "/old/sub")

(* {1 Range IO} *)

let test_read_range_basics () =
  let _, _, fs = mk_fs ~mode:Fs.D2 () in
  let data = String.init 30_000 (fun i -> Char.chr (i mod 251)) in
  Fs.write_file fs ~path:"/r" ~data;
  Alcotest.(check (option string)) "middle across blocks"
    (Some (String.sub data 8000 400))
    (Fs.read_range fs ~path:"/r" ~offset:8000 ~length:400);
  Alcotest.(check (option string)) "clamped at eof"
    (Some (String.sub data 29_990 10))
    (Fs.read_range fs ~path:"/r" ~offset:29_990 ~length:100);
  Alcotest.(check (option string)) "past eof" (Some "")
    (Fs.read_range fs ~path:"/r" ~offset:50_000 ~length:10);
  Alcotest.(check (option string)) "missing file" None
    (Fs.read_range fs ~path:"/none" ~offset:0 ~length:1)

let test_read_range_fetches_few_blocks () =
  let _, _, fs = mk_fs ~mode:Fs.D2 () in
  Fs.write_file fs ~path:"/big" ~data:(String.make 200_000 'z');
  let before = Fs.blocks_fetched fs in
  ignore (Fs.read_range fs ~path:"/big" ~offset:100_000 ~length:100);
  let fetched = Fs.blocks_fetched fs - before in
  (* Metadata walk (root dir + inode) + 1 data block; far from 25. *)
  Alcotest.(check bool) (Printf.sprintf "only %d fetches" fetched) true (fetched <= 4)

let test_write_range_modify () =
  let _, _, fs = mk_fs ~mode:Fs.D2 () in
  let data = String.make 30_000 'a' in
  Fs.write_file fs ~path:"/w" ~data;
  Fs.write_range fs ~path:"/w" ~offset:8_000 ~data:(String.make 500 'B');
  let expect =
    String.concat ""
      [ String.make 8_000 'a'; String.make 500 'B'; String.make 21_500 'a' ]
  in
  Alcotest.(check (option string)) "spliced" (Some expect) (Fs.read_file fs "/w");
  Alcotest.(check (option int)) "size unchanged" (Some 30_000) (Fs.file_size fs "/w")

let test_write_range_untouched_blocks_keep_keys () =
  let _, _, fs = mk_fs ~mode:Fs.D2 () in
  Fs.write_file fs ~path:"/k" ~data:(String.make 40_000 'a');
  let before = Fs.file_block_keys fs "/k" in
  (* Touch only the second block. *)
  Fs.write_range fs ~path:"/k" ~offset:9_000 ~data:"XYZ";
  let after = Fs.file_block_keys fs "/k" in
  (* inode key changes (new generation); blocks 0,2,3,4 keep keys. *)
  Alcotest.(check int) "same count" (List.length before) (List.length after);
  let b = Array.of_list before and a = Array.of_list after in
  Alcotest.(check bool) "inode rekeyed" false (Key.equal b.(0) a.(0));
  Alcotest.(check bool) "block0 kept" true (Key.equal b.(1) a.(1));
  Alcotest.(check bool) "block1 rekeyed" false (Key.equal b.(2) a.(2));
  Alcotest.(check bool) "block2 kept" true (Key.equal b.(3) a.(3));
  Alcotest.(check bool) "block4 kept" true (Key.equal b.(5) a.(5))

let test_write_range_extends () =
  let _, _, fs = mk_fs ~mode:Fs.D2 () in
  Fs.write_file fs ~path:"/e" ~data:(String.make 10_000 'a');
  Fs.write_range fs ~path:"/e" ~offset:20_000 ~data:"tail";
  Alcotest.(check (option int)) "grew" (Some 20_004) (Fs.file_size fs "/e");
  Alcotest.(check (option string)) "zero gap" (Some "\000\000")
    (Fs.read_range fs ~path:"/e" ~offset:15_000 ~length:2);
  Alcotest.(check (option string)) "tail" (Some "tail")
    (Fs.read_range fs ~path:"/e" ~offset:20_000 ~length:10);
  Alcotest.(check (option string)) "old data intact" (Some "aa")
    (Fs.read_range fs ~path:"/e" ~offset:0 ~length:2)

let test_write_range_creates () =
  let _, _, fs = mk_fs ~mode:Fs.D2 () in
  Fs.write_range fs ~path:"/new" ~offset:100 ~data:"hello";
  Alcotest.(check (option int)) "created with gap" (Some 105) (Fs.file_size fs "/new");
  Alcotest.(check (option string)) "content" (Some "hello")
    (Fs.read_range fs ~path:"/new" ~offset:100 ~length:5)

let test_write_range_pending () =
  let _, cluster = mk_cluster () in
  let fs = Fs.create ~cluster ~volume:"wb" ~mode:Fs.D2 ~write_back:true () in
  Fs.write_file fs ~path:"/p" ~data:(String.make 100 'a');
  Fs.write_range fs ~path:"/p" ~offset:50 ~data:"ZZ";
  Alcotest.(check (option string)) "spliced in buffer" (Some "ZZ")
    (Fs.read_range fs ~path:"/p" ~offset:50 ~length:2);
  Fs.flush fs;
  Alcotest.(check (option string)) "durable" (Some "ZZ")
    (Fs.read_range fs ~path:"/p" ~offset:50 ~length:2)

(* Random range ops vs a string reference model. *)
let test_range_model mode () =
  let rng = Rng.create 555 in
  let _, _, fs = mk_fs ~mode () in
  let model = ref "" in
  Fs.write_file fs ~path:"/m" ~data:"";
  for step = 1 to 120 do
    if Rng.float rng 1.0 < 0.6 then begin
      let offset = Rng.int rng 40_000 in
      let len = 1 + Rng.int rng 12_000 in
      let data = String.make len (Char.chr (65 + (step mod 26))) in
      Fs.write_range fs ~path:"/m" ~offset ~data;
      let n = max (String.length !model) (offset + len) in
      let b = Bytes.make n '\000' in
      Bytes.blit_string !model 0 b 0 (String.length !model);
      Bytes.blit_string data 0 b offset len;
      model := Bytes.to_string b
    end
    else begin
      let offset = Rng.int rng 50_000 in
      let len = Rng.int rng 10_000 in
      let expect =
        let n = String.length !model in
        if offset >= n then "" else String.sub !model offset (min len (n - offset))
      in
      match Fs.read_range fs ~path:"/m" ~offset ~length:len with
      | Some got when got = expect -> ()
      | _ -> Alcotest.failf "step %d: range read diverged" step
    end
  done;
  Alcotest.(check (option string)) "final content" (Some !model) (Fs.read_file fs "/m")

(* {1 Snapshots} *)

let test_snapshot_isolation () =
  let _, _, fs = mk_fs ~mode:Fs.D2 () in
  Fs.write_file fs ~path:"/doc" ~data:(String.make 20_000 '1');
  Fs.write_file fs ~path:"/other" ~data:"o1";
  let snap = Fs.snapshot fs in
  (* Overwrite and add after the snapshot. *)
  Fs.write_file fs ~path:"/doc" ~data:"v2";
  Fs.write_file fs ~path:"/new" ~data:"n";
  Fs.delete fs "/other";
  (* The live view moved on... *)
  Alcotest.(check (option string)) "live doc" (Some "v2") (Fs.read_file fs "/doc");
  (* ...while the snapshot (within the 30 s removal window) still
     serves the old consistent state. *)
  Alcotest.(check (option string)) "snapshot doc" (Some (String.make 20_000 '1'))
    (Fs.snapshot_read snap "/doc");
  Alcotest.(check (option string)) "snapshot other" (Some "o1")
    (Fs.snapshot_read snap "/other");
  Alcotest.(check (option string)) "snapshot unaware of new" None
    (Fs.snapshot_read snap "/new");
  Alcotest.(check (list (pair string bool))) "snapshot listing"
    [ ("doc", false); ("other", false) ]
    (Fs.snapshot_list snap "/")

let test_snapshot_ages_out () =
  let engine, _, fs = mk_fs ~mode:Fs.D2 () in
  Fs.write_file fs ~path:"/doc" ~data:(String.make 20_000 '1');
  let snap = Fs.snapshot fs in
  Fs.write_file fs ~path:"/doc" ~data:"v2";
  (* Past the removal window the superseded blocks are gone. *)
  Engine.run engine ~until:(Engine.now engine +. 60.0);
  Alcotest.(check bool) "aged out" true
    (try
       ignore (Fs.snapshot_read snap "/doc");
       false
     with Not_found -> true);
  Alcotest.(check (option string)) "live still fine" (Some "v2") (Fs.read_file fs "/doc")

(* {1 Volume checking (fsck)} *)

let test_check_volume_clean () =
  let _, _, fs = mk_fs ~mode:Fs.D2 () in
  Fs.mkdir fs "/a/b";
  Fs.write_file fs ~path:"/a/b/big" ~data:(String.make 30_000 'x');
  Fs.write_file fs ~path:"/a/small" ~data:"tiny";
  let r = Fs.check_volume fs in
  Alcotest.(check int) "dirs" 3 r.Fs.dirs;
  Alcotest.(check int) "files" 2 r.Fs.files;
  Alcotest.(check int) "bytes" 30_004 r.Fs.bytes;
  Alcotest.(check (list string)) "no problems" [] r.Fs.problems

let test_check_volume_corruption () =
  let _, cluster, fs = mk_fs ~mode:Fs.D2 () in
  Fs.write_file fs ~path:"/f" ~data:(String.make 20_000 'y');
  Fs.write_file fs ~path:"/ok" ~data:"fine";
  let keys = Fs.file_block_keys fs "/f" in
  Cluster.put cluster ~key:(List.nth keys 1) ~size:10
    ~data:(Layout.encode (Layout.Data "junk")) ();
  let r = Fs.check_volume fs in
  Alcotest.(check int) "one problem" 1 (List.length r.Fs.problems);
  Alcotest.(check bool) "names the file" true
    (match r.Fs.problems with [ p ] -> String.length p > 2 && String.sub p 0 2 = "/f" | _ -> false);
  Alcotest.(check int) "other file still verified" 2 r.Fs.files

(* {1 Model-based testing}

   Random op sequences applied both to D2-FS and to a trivial
   in-memory reference (path -> contents map); every read, existence
   check and listing must agree. *)

let test_model_equivalence mode () =
  let rng = Rng.create 2024 in
  let engine, cluster = mk_cluster ~n:16 () in
  let fs = Fs.create ~cluster ~volume:"model" ~mode ~write_back:false () in
  let model : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let dirs = [| "/a"; "/a/b"; "/c"; "/c/d/e" |] in
  let names = [| "x"; "y"; "z" |] in
  let random_path () =
    dirs.(Rng.int rng (Array.length dirs)) ^ "/" ^ names.(Rng.int rng (Array.length names))
  in
  let random_data () =
    let n = Rng.int rng 3 in
    if n = 0 then ""
    else if n = 1 then String.make (1 + Rng.int rng 100) 's'
    else String.make (9000 + Rng.int rng 20000) 'L'
  in
  for step = 1 to 300 do
    let path = random_path () in
    (match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 ->
        let data = random_data () in
        Fs.write_file fs ~path ~data;
        Hashtbl.replace model path data
    | 5 | 6 ->
        let expected = Hashtbl.find_opt model path in
        let actual = Fs.read_file fs path in
        if expected <> actual then
          Alcotest.failf "step %d: read %s mismatch" step path
    | 7 ->
        if Hashtbl.mem model path then begin
          Fs.delete fs path;
          Hashtbl.remove model path
        end
    | 8 ->
        let dst = random_path () in
        if Hashtbl.mem model path && (not (Hashtbl.mem model dst)) && path <> dst
        then begin
          Fs.rename fs ~src:path ~dst;
          Hashtbl.replace model dst (Hashtbl.find model path);
          Hashtbl.remove model path
        end
    | _ -> Engine.run engine ~until:(Engine.now engine +. 60.0));
    if step mod 100 = 0 then begin
      (* Full sweep: every model file reads back; nothing extra exists. *)
      Hashtbl.iter
        (fun p data ->
          match Fs.read_file fs p with
          | Some d when d = data -> ()
          | _ -> Alcotest.failf "sweep at %d: %s diverged" step p)
        model;
      Array.iter
        (fun d ->
          Array.iter
            (fun n ->
              let p = d ^ "/" ^ n in
              Alcotest.(check bool) ("exists " ^ p) (Hashtbl.mem model p) (Fs.exists fs p))
            names)
        dirs
    end
  done;
  Engine.run engine ~until:(Engine.now engine +. 3600.0);
  Cluster.check_invariants cluster

let mode_cases name f =
  Alcotest.test_case name `Quick (for_all_modes f)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "d2_fs"
    [
      ( "layout",
        Alcotest.test_case "root roundtrip + signature" `Quick test_layout_root_roundtrip
        :: Alcotest.test_case "directory roundtrip" `Quick test_layout_dir_roundtrip
        :: Alcotest.test_case "inode roundtrip" `Quick test_layout_inode_roundtrip
        :: Alcotest.test_case "data + malformed" `Quick test_layout_data_and_errors
        :: qcheck [ prop_layout_data_roundtrip ] );
      ( "fs-all-modes",
        [
          mode_cases "write/read roundtrip" test_write_read_roundtrip;
          mode_cases "missing file" test_missing_file;
          mode_cases "overwrite" test_overwrite;
          mode_cases "delete" test_delete;
          mode_cases "rename keeps keys" test_rename;
          mode_cases "list_dir" test_list_dir;
          mode_cases "inline small files" test_inline_small_files;
          mode_cases "empty file" test_empty_file;
          mode_cases "path validation" test_path_validation;
          mode_cases "fetch and key pins" test_read_paths_pinned;
        ] );
      ( "fs-placement",
        [
          Alcotest.test_case "D2 locality" `Quick test_d2_locality;
          Alcotest.test_case "traditional scatter" `Quick test_traditional_scatter;
          Alcotest.test_case "traditional-file groups" `Quick test_traditional_file_groups;
          Alcotest.test_case "deep paths" `Quick test_deep_paths;
          Alcotest.test_case "integrity detection" `Quick test_integrity_detection;
        ] );
      ( "fs-write-back",
        [
          Alcotest.test_case "30s buffering" `Quick test_write_back_semantics;
          Alcotest.test_case "temp file absorbed" `Quick test_write_back_temp_file_absorbed;
          Alcotest.test_case "flush forces" `Quick test_write_back_flush_forces;
          Alcotest.test_case "pending in list_dir" `Quick test_list_dir_shows_pending;
          Alcotest.test_case "range re-arms the commit" `Quick
            test_write_range_pending_commits;
          Alcotest.test_case "delete of an overwrite" `Quick test_delete_pending_overwrite;
          Alcotest.test_case "mkdir over a pending file" `Quick test_mkdir_over_pending_file;
        ] );
      ( "fs-misc",
        [
          Alcotest.test_case "slot reuse" `Quick test_slot_reuse_after_delete;
          Alcotest.test_case "mkdir idempotent" `Quick test_mkdir_idempotent;
          Alcotest.test_case "rename directory" `Quick test_rename_directory;
        ] );
      ( "fs-range",
        [
          Alcotest.test_case "read basics" `Quick test_read_range_basics;
          Alcotest.test_case "reads few blocks" `Quick test_read_range_fetches_few_blocks;
          Alcotest.test_case "write modify" `Quick test_write_range_modify;
          Alcotest.test_case "untouched keys kept" `Quick test_write_range_untouched_blocks_keep_keys;
          Alcotest.test_case "write extends" `Quick test_write_range_extends;
          Alcotest.test_case "write creates" `Quick test_write_range_creates;
          Alcotest.test_case "write-back splice" `Quick test_write_range_pending;
          Alcotest.test_case "range model (d2)" `Quick (test_range_model Fs.D2);
          Alcotest.test_case "range model (traditional)" `Quick
            (test_range_model Fs.Traditional);
        ] );
      ( "fs-snapshot",
        [
          Alcotest.test_case "isolation" `Quick test_snapshot_isolation;
          Alcotest.test_case "ages out" `Quick test_snapshot_ages_out;
        ] );
      ( "fs-check",
        [
          Alcotest.test_case "clean volume" `Quick test_check_volume_clean;
          Alcotest.test_case "detects corruption" `Quick test_check_volume_corruption;
        ] );
      ( "fs-model",
        [
          Alcotest.test_case "random ops match reference (d2)" `Quick
            (test_model_equivalence Fs.D2);
          Alcotest.test_case "random ops match reference (traditional)" `Quick
            (test_model_equivalence Fs.Traditional);
          Alcotest.test_case "random ops match reference (file)" `Quick
            (test_model_equivalence Fs.Traditional_file);
        ] );
    ]
