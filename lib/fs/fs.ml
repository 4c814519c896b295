module Key = D2_keyspace.Key
module Encoding = D2_keyspace.Encoding
module Keygen = D2_keyspace.Keygen
module Cluster = D2_store.Cluster
module Engine = D2_simnet.Engine
module Block_cache = D2_cache.Block_cache

type mode = Keygen.mode = D2 | Traditional | Traditional_file

exception Integrity_violation of string

type pending_write = { data : string; token : int }

type t = {
  cluster : Cluster.t;
  keys : Keygen.policy;
  write_back : bool;
  wb_window : float;
  pending : (string, pending_write) Hashtbl.t;
  warm : Block_cache.t;
  mutable next_token : int;
  mutable next_gen : int;
  (* Generations are drawn from this volume-global monotone counter,
     never restarted per path: a renamed object keeps its original
     keys (§4.2), so a file re-created at the old path must not mint
     the same (path, generation) key the renamed incarnation uses. *)
  mutable fetches : int;
  root_key : Key.t;
}

let mode t = t.keys.Keygen.mode
let volume t = t.keys.Keygen.volume
let blocks_fetched t = t.fetches

let meta_key t ~path ~slots ~gen =
  Keygen.meta_key t.keys ~path ~slots ~version:(Int32.of_int gen)

let fresh_gen t =
  let g = t.next_gen in
  t.next_gen <- t.next_gen + 1;
  g

(* {1 Path handling} *)

let components path =
  if String.length path = 0 || path.[0] <> '/' then
    invalid_arg (Printf.sprintf "Fs: path %S must be absolute" path);
  List.filter (fun c -> c <> "") (String.split_on_char '/' path)

let split_parent path =
  match List.rev (components path) with
  | [] -> invalid_arg "Fs: the root directory is not a file"
  | name :: rev_parents -> (List.rev rev_parents, name)

let child_path parent name = if parent = "/" then "/" ^ name else parent ^ "/" ^ name

(* {1 Block IO} *)

let put_block t ~key ~payload =
  Cluster.put t.cluster ~key ~size:(String.length payload) ~data:payload ()

let fetch_raw t ~key =
  match Cluster.get t.cluster ~key with
  | Some (Some payload) -> Some payload
  | Some None -> None
  | None -> None

let fetch_verified t ~key ~expect_hash ~what =
  let now = Engine.now (Cluster.engine t.cluster) in
  let warm_hit = Block_cache.touch t.warm ~now key in
  match fetch_raw t ~key with
  | None -> raise Not_found
  | Some payload ->
      if not warm_hit then t.fetches <- t.fetches + 1;
      if not (String.equal (Layout.content_hash payload) expect_hash) then
        raise (Integrity_violation what);
      Layout.decode payload

let read_root t =
  match fetch_raw t ~key:t.root_key with
  | None -> invalid_arg "Fs: volume root block missing"
  | Some payload -> (
      match Layout.decode payload with
      | Layout.Root rb ->
          if not (Layout.verify_root rb) then
            raise (Integrity_violation "root signature");
          rb
      | _ -> raise (Integrity_violation "root block has wrong type"))

let write_root t ~root_dir_key ~root_dir_hash ~version =
  let volume = t.keys.Keygen.volume in
  let signature = Layout.sign_root ~volume ~root_dir_key ~root_dir_hash ~version in
  let rb =
    { Layout.volume; root_dir_key; root_dir_hash; root_version = version; signature }
  in
  put_block t ~key:t.root_key ~payload:(Layout.encode (Layout.Root rb))

let read_dir t ~key ~expect_hash ~what =
  match fetch_verified t ~key ~expect_hash ~what with
  | Layout.Directory db -> db
  | _ -> raise (Integrity_violation (what ^ ": expected a directory block"))

let read_inode t ~key ~expect_hash ~what =
  match fetch_verified t ~key ~expect_hash ~what with
  | Layout.Inode ib -> ib
  | _ -> raise (Integrity_violation (what ^ ": expected an inode block"))

let read_data t (key, expect_hash) ~what =
  match fetch_verified t ~key ~expect_hash ~what with
  | Layout.Data s -> s
  | _ -> raise (Integrity_violation (what ^ ": expected a data block"))

(* Put a directory block under its key for [path]: (key, content hash). *)
let put_dir t ~path db =
  let payload = Layout.encode (Layout.Directory db) in
  let key = meta_key t ~path ~slots:db.Layout.dir_slots ~gen:db.Layout.dir_generation in
  put_block t ~key ~payload;
  (key, Layout.content_hash payload)

let empty_dir slots =
  { Layout.dir_slots = slots; dir_generation = 0; reserved_slots = []; entries = [] }

let data_keys (ib : Layout.inode_block) =
  match ib.Layout.contents with Layout.Inline _ -> [] | Layout.Blocks bs -> List.map fst bs

(* {1 Views}

   A view is a root directory to read from, seen through a write-back
   buffer.  The live view starts from the current root block and sees
   the pending writes; a snapshot pins the root captured earlier and
   sees none. *)

type view = {
  fs : t;
  dir_key : Key.t;
  dir_hash : string;
  buffered : (string, pending_write) Hashtbl.t;  (** the pending writes it sees *)
}

let live t =
  let rb = read_root t in
  { fs = t; dir_key = rb.Layout.root_dir_key; dir_hash = rb.Layout.root_dir_hash;
    buffered = t.pending }

(* A [link] is one resolved directory: its path, its key and its block. *)
type link = { lpath : string; lname : string; lkey : Key.t; ldb : Layout.dir_block }

let find_entry db name =
  List.find_opt (fun (e : Layout.dir_entry) -> e.Layout.name = name) db.Layout.entries

let drop_entry name entries =
  List.filter (fun (e : Layout.dir_entry) -> e.Layout.name <> name) entries

(* The one path walk: down [comps] from [v]'s root directory.  Returns
   the directories resolved, deepest first, and the components left
   from the first missing one.  A file on the way, committed or
   pending, raises Invalid_argument. *)
let walk v comps =
  let t = v.fs in
  let rec go chain = function
    | [] -> (chain, [])
    | name :: rest as left -> (
        let dir = List.hd chain in
        let path = child_path dir.lpath name in
        match (find_entry dir.ldb name, Hashtbl.mem v.buffered path) with
        | None, false -> (chain, left)
        | Some e, false when e.Layout.kind = Layout.Dir ->
            let key = e.Layout.child_key in
            let ldb = read_dir t ~key ~expect_hash:e.Layout.child_hash ~what:path in
            go ({ lpath = path; lname = name; lkey = key; ldb } :: chain) rest
        | _ -> invalid_arg (Printf.sprintf "Fs: %s is a file" path))
  in
  let root = read_dir t ~key:v.dir_key ~expect_hash:v.dir_hash ~what:"/" in
  go [ { lpath = "/"; lname = ""; lkey = v.dir_key; ldb = root } ] comps

(* The committed entry at [path] with the directory chain holding it,
   or None. *)
let lookup v path =
  let parents, name = split_parent path in
  match walk v parents with
  | (dir :: _ as chain), [] -> Option.map (fun e -> (chain, e)) (find_entry dir.ldb name)
  | _ -> None

(* The inode of the file at [path]: a pending write reads as an inline
   inode. *)
let find_inode v path =
  match Hashtbl.find_opt v.buffered path with
  | Some pw ->
      let data = pw.data in
      Some { Layout.size = String.length data; generation = 0; contents = Layout.Inline data }
  | None -> (
      match lookup v path with
      | Some (_, e) when e.Layout.kind = Layout.File ->
          Some (read_inode v.fs ~key:e.Layout.child_key ~expect_hash:e.Layout.child_hash ~what:path)
      | _ -> None)

(* {1 Reading} *)

let block_span ~offset ~length =
  let first = offset / Layout.max_block_bytes in
  let last = (offset + length - 1) / Layout.max_block_bytes in
  (first, last)

(* The one block reader: bytes [offset, offset + length) of the file
   with inode [ib], clamped to its size.  Only the data blocks covering
   the range are fetched. *)
let read_bytes t ~what (ib : Layout.inode_block) ~offset ~length =
  let length = min length (ib.Layout.size - offset) in
  if length <= 0 then ""
  else
    match ib.Layout.contents with
    | Layout.Inline s -> String.sub s offset length
    | Layout.Blocks bs ->
        let first, last = block_span ~offset ~length in
        let buf = Buffer.create length in
        List.iteri
          (fun i block ->
            if i >= first && i <= last then Buffer.add_string buf (read_data t block ~what))
          bs;
        Buffer.sub buf (offset - (first * Layout.max_block_bytes)) length

let read v ~path ~offset ~length =
  Option.map (read_bytes v.fs ~what:path ~offset ~length) (find_inode v path)

(* The one lister: a directory's entries with the pending files in it. *)
let list v path =
  match walk v (components path) with
  | dir :: _, [] ->
      let committed =
        List.map (fun (e : Layout.dir_entry) -> (e.Layout.name, e.Layout.kind = Layout.Dir))
          dir.ldb.Layout.entries
      in
      let prefix = if dir.lpath = "/" then "/" else dir.lpath ^ "/" in
      let n = String.length prefix in
      let pending =
        Hashtbl.fold
          (fun p _ acc ->
            if String.starts_with ~prefix p && String.length p > n
               && not (String.contains_from p n '/')
            then
              let name = String.sub p n (String.length p - n) in
              if List.mem_assoc name committed then acc else (name, false) :: acc
            else acc)
          v.buffered []
      in
      List.sort compare (committed @ pending)
  | _ -> raise Not_found

(* {1 Publishing} *)

let fresh_slot db =
  let used =
    List.map (fun (e : Layout.dir_entry) -> e.Layout.slot) db.Layout.entries
    @ db.Layout.reserved_slots
  in
  let rec search s =
    if s > Encoding.max_slot then invalid_arg "Fs: directory is full (65535 entries)"
    else if List.mem s used then search (s + 1)
    else s
  in
  search 1

(* Re-publish a directory chain (deepest first) whose last directory
   now holds [db], bottom-up: each directory gets a new generation
   (hence a new key), its parent's entry is updated, and finally the
   root block is rewritten in place (§3). *)
let rec commit_chain t chain db =
  match chain with
  | [] -> assert false
  | link :: rest -> (
      let key, hash =
        put_dir t ~path:link.lpath { db with Layout.dir_generation = fresh_gen t }
      in
      if not (Key.equal key link.lkey) then Cluster.remove t.cluster ~key:link.lkey ();
      match rest with
      | [] ->
          let rb = read_root t in
          write_root t ~root_dir_key:key ~root_dir_hash:hash ~version:(rb.Layout.root_version + 1)
      | parent :: _ ->
          let entries =
            List.map
              (fun (e : Layout.dir_entry) ->
                if e.Layout.name = link.lname then
                  { e with Layout.child_key = key; child_hash = hash }
                else e)
              parent.ldb.Layout.entries
          in
          commit_chain t rest { parent.ldb with Layout.entries })

(* The directories along [comps], deepest first, creating the missing
   ones from where the walk stops: each new directory is committed on
   its own, and the walk restarts from the new root. *)
let rec ensure_dirs t comps =
  match walk (live t) comps with
  | chain, [] -> chain
  | chain, name :: _ ->
      let parent = List.hd chain in
      let slot = fresh_slot parent.ldb in
      let child_key, child_hash =
        put_dir t ~path:(child_path parent.lpath name)
          (empty_dir (parent.ldb.Layout.dir_slots @ [ slot ]))
      in
      let entry = { Layout.name; slot; kind = Layout.Dir; child_key; child_hash } in
      commit_chain t chain { parent.ldb with Layout.entries = entry :: parent.ldb.Layout.entries };
      ensure_dirs t comps

(* The one inode publisher.  [update put old] gives the file's new size
   and contents and the data keys it retires, from its current inode
   [old]; [put i chunk] stores data block [i] of the new generation.
   The inode is put, the old inode and the retired keys are removed,
   and the parent chain is re-published. *)
let commit t ~path update =
  let parents, name = split_parent path in
  let chain = ensure_dirs t parents in
  let parent = List.hd chain in
  let slot, old =
    match find_entry parent.ldb name with
    | Some e when e.Layout.kind = Layout.Dir ->
        invalid_arg (Printf.sprintf "Fs: %s is a directory" path)
    | Some e ->
        let key = e.Layout.child_key in
        (e.Layout.slot, Some (key, read_inode t ~key ~expect_hash:e.Layout.child_hash ~what:path))
    | None -> (fresh_slot parent.ldb, None)
  in
  let gen = fresh_gen t in
  let slots = parent.ldb.Layout.dir_slots @ [ slot ] in
  let put index chunk =
    let payload = Layout.encode (Layout.Data chunk) in
    let key = Keygen.data_key t.keys ~path ~slots ~index ~version:(Int32.of_int gen) in
    put_block t ~key ~payload;
    (key, Layout.content_hash payload)
  in
  let size, contents, retired = update put (Option.map snd old) in
  let payload = Layout.encode (Layout.Inode { Layout.size; generation = gen; contents }) in
  let child_key = meta_key t ~path ~slots ~gen in
  put_block t ~key:child_key ~payload;
  List.iter
    (fun key -> Cluster.remove t.cluster ~key ())
    (Option.to_list (Option.map fst old) @ retired);
  let entry =
    { Layout.name; slot; kind = Layout.File; child_key; child_hash = Layout.content_hash payload }
  in
  commit_chain t chain
    { parent.ldb with Layout.entries = entry :: drop_entry name parent.ldb.Layout.entries }

let chunks_of data =
  let n = String.length data in
  if n = 0 then [ "" ]
  else begin
    let count = (n + Layout.max_block_bytes - 1) / Layout.max_block_bytes in
    List.init count (fun i ->
        let off = i * Layout.max_block_bytes in
        String.sub data off (min Layout.max_block_bytes (n - off)))
  end

(* A whole-file write: fresh data blocks, every old one retired. *)
let whole data put old =
  let contents =
    if String.length data <= Layout.inline_threshold then Layout.Inline data
    else Layout.Blocks (List.mapi put (chunks_of data))
  in
  (String.length data, contents, Option.fold ~none:[] ~some:data_keys old)

let splice ~old ~offset ~data =
  let new_len = max (String.length old) (offset + String.length data) in
  let b = Bytes.make new_len '\000' in
  Bytes.blit_string old 0 b 0 (String.length old);
  Bytes.blit_string data 0 b offset (String.length data);
  Bytes.unsafe_to_string b

(* {1 Range IO (NFS-style)}

   A partial write read-modify-writes only the blocks it changes:
   those it overlaps, and those growth zero-fills past the old end.
   Untouched data blocks keep their keys and hashes; only the inode and
   the metadata chain are re-published. *)

let spliced t ~path ~offset ~data put current =
  match current with
  | Some ({ Layout.contents = Layout.Blocks bs; size; _ } as ib) ->
      let stop = offset + String.length data in
      let start = min offset size in
      if stop <= start then (size, Layout.Blocks bs, [])
      else begin
        let first, last = block_span ~offset:start ~length:(stop - start) in
        let span = first * Layout.max_block_bytes in
        let prior =
          read_bytes t ~what:path ib ~offset:span
            ~length:((last + 1 - first) * Layout.max_block_bytes)
        in
        let fresh =
          List.mapi (fun i chunk -> put (first + i) chunk)
            (chunks_of (splice ~old:prior ~offset:(offset - span) ~data))
        in
        let before = List.filteri (fun i _ -> i < first) bs in
        let after = List.filteri (fun i _ -> i > last) bs in
        let replaced = List.filteri (fun i _ -> i >= first && i <= last) bs in
        (max size stop, Layout.Blocks (before @ fresh @ after), List.rev_map fst replaced)
      end
  | Some { Layout.contents = Layout.Inline old; _ } ->
      (* Tiny file: rewrite whole (may grow into block storage). *)
      whole (splice ~old ~offset ~data) put None
  | None -> whole (splice ~old:"" ~offset ~data) put None

(* {1 The write-back buffer} *)

let commit_file t ~path ~data = commit t ~path (whole data)

let flush_one t path =
  match Hashtbl.find_opt t.pending path with
  | None -> ()
  | Some pw ->
      Hashtbl.remove t.pending path;
      commit_file t ~path ~data:pw.data

(* Hold [data] as [path]'s pending write, committed [wb_window] from
   now unless replaced first. *)
let buffer t ~path data =
  t.next_token <- t.next_token + 1;
  let token = t.next_token in
  Hashtbl.replace t.pending path { data; token };
  Engine.schedule_in (Cluster.engine t.cluster) ~delay:t.wb_window (fun () ->
      match Hashtbl.find_opt t.pending path with
      | Some pw when pw.token = token -> flush_one t path
      | Some _ | None -> ())

let flush t =
  let paths = Hashtbl.fold (fun p _ acc -> p :: acc) t.pending [] in
  List.iter (flush_one t) (List.sort compare paths)

(* {1 Creation} *)

let create ~cluster ~volume ~mode ?(write_back = true) () =
  let keys = Keygen.policy mode ~volume in
  let t =
    {
      cluster;
      keys;
      write_back;
      wb_window = 30.0;
      pending = Hashtbl.create 32;
      warm = Block_cache.create ();
      next_token = 0;
      next_gen = 1;
      fetches = 0;
      root_key = Keygen.root_key keys;
    }
  in
  (* Empty root directory + signed root block. *)
  let root_dir_key, root_dir_hash = put_dir t ~path:"/" (empty_dir []) in
  write_root t ~root_dir_key ~root_dir_hash ~version:0;
  t

(* {1 The live view} *)

let mkdir t path = ignore (ensure_dirs t (components path))

let write_file t ~path ~data =
  ignore (split_parent path);
  if t.write_back then buffer t ~path data else commit_file t ~path ~data

let write_range t ~path ~offset ~data =
  if offset < 0 then invalid_arg "Fs.write_range: negative offset";
  ignore (split_parent path);
  match Hashtbl.find_opt t.pending path with
  | Some pw -> buffer t ~path (splice ~old:pw.data ~offset ~data)
  | None -> commit t ~path (spliced t ~path ~offset ~data)

let read_file t path = read (live t) ~path ~offset:0 ~length:max_int

let read_range t ~path ~offset ~length =
  if offset < 0 then invalid_arg "Fs.read_range: negative offset";
  if length < 0 then invalid_arg "Fs.read_range: negative length";
  read (live t) ~path ~offset ~length

let exists t path = path = "/" || Hashtbl.mem t.pending path || lookup (live t) path <> None

let is_dir t path =
  if path = "/" then true
  else if Hashtbl.mem t.pending path then false
  else
    match lookup (live t) path with
    | Some (_, e) -> e.Layout.kind = Layout.Dir
    | None -> false

let file_size t path =
  Option.map (fun (ib : Layout.inode_block) -> ib.Layout.size) (find_inode (live t) path)

let list_dir t path = list (live t) path

(* {1 Delete and rename} *)

let delete t path =
  let was_pending = Hashtbl.mem t.pending path in
  Hashtbl.remove t.pending path;
  match lookup (live t) path with
  | None -> if not was_pending then raise Not_found
  | Some (chain, e) ->
      let key = e.Layout.child_key and expect_hash = e.Layout.child_hash in
      (match e.Layout.kind with
      | Layout.Dir ->
          if (read_dir t ~key ~expect_hash ~what:path).Layout.entries <> [] then
            invalid_arg (Printf.sprintf "Fs: directory %s is not empty" path)
      | Layout.File ->
          List.iter
            (fun key -> Cluster.remove t.cluster ~key ())
            (data_keys (read_inode t ~key ~expect_hash ~what:path)));
      Cluster.remove t.cluster ~key ();
      let parent = List.hd chain in
      commit_chain t chain
        { parent.ldb with Layout.entries = drop_entry e.Layout.name parent.ldb.Layout.entries }

let rename t ~src ~dst =
  flush_one t src;
  let chain, e = match lookup (live t) src with None -> raise Not_found | Some found -> found in
  (* Remove from the source parent, reserving the freed slot: the
     renamed object keeps its original keys (§4.2), so a new child
     here must never be assigned the same slot path. *)
  let parent = List.hd chain in
  commit_chain t chain
    { parent.ldb with
      Layout.entries = drop_entry e.Layout.name parent.ldb.Layout.entries;
      reserved_slots = e.Layout.slot :: parent.ldb.Layout.reserved_slots };
  (* Then link into the destination parent, keeping the original keys
     (§4.2: renamed objects stay at their key-space home). *)
  let dst_parents, dst_name = split_parent dst in
  let chain = ensure_dirs t dst_parents in
  let parent = List.hd chain in
  if find_entry parent.ldb dst_name <> None then
    invalid_arg (Printf.sprintf "Fs: destination %s exists" dst);
  let entry = { e with Layout.name = dst_name; slot = fresh_slot parent.ldb } in
  commit_chain t chain { parent.ldb with Layout.entries = entry :: parent.ldb.Layout.entries }

(* {1 Snapshots}

   A snapshot pins the root directory pointer captured from the root
   block; because every metadata update publishes *new* keys and only
   removes the old ones after the store's delayed-removal window, the
   whole captured tree stays readable for that window after any
   overwrite — the paper's stale-but-consistent reader semantics.  A
   block that aged out raises Not_found from the walk or the read. *)

type snapshot = view

let snapshot t =
  flush t;
  { (live t) with buffered = Hashtbl.create 1 }

let snapshot_read s path = read s ~path ~offset:0 ~length:max_int
let snapshot_list = list

type check_report = {
  dirs : int;
  files : int;
  bytes : int;
  problems : string list;
}

let check_volume t =
  flush t;
  let dirs = ref 0 and files = ref 0 and bytes = ref 0 in
  let problems = ref [] in
  let defect fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let rec walk_dir ~path ~key ~expect_hash =
    match read_dir t ~key ~expect_hash ~what:path with
    | exception Not_found -> defect "%s: directory block missing" path
    | exception Integrity_violation what -> defect "%s: corrupt (%s)" path what
    | db ->
        incr dirs;
        List.iter
          (fun (e : Layout.dir_entry) ->
            let cpath = child_path path e.Layout.name in
            match e.Layout.kind with
            | Layout.Dir ->
                walk_dir ~path:cpath ~key:e.Layout.child_key
                  ~expect_hash:e.Layout.child_hash
            | Layout.File -> walk_file ~path:cpath ~key:e.Layout.child_key
                               ~expect_hash:e.Layout.child_hash)
          db.Layout.entries
  and walk_file ~path ~key ~expect_hash =
    match read_inode t ~key ~expect_hash ~what:path with
    | exception Not_found -> defect "%s: inode missing" path
    | exception Integrity_violation what -> defect "%s: corrupt inode (%s)" path what
    | ib -> (
        incr files;
        match ib.Layout.contents with
        | Layout.Inline s -> bytes := !bytes + String.length s
        | Layout.Blocks bs ->
            List.iteri
              (fun i block ->
                match read_data t block ~what:path with
                | s -> bytes := !bytes + String.length s
                | exception Not_found -> defect "%s: block %d missing" path i
                | exception Integrity_violation _ ->
                    defect "%s: block %d corrupt" path i)
              bs)
  in
  (match read_root t with
  | exception Integrity_violation what -> defect "root: %s" what
  | exception Invalid_argument msg -> defect "%s" msg
  | rb ->
      walk_dir ~path:"/" ~key:rb.Layout.root_dir_key
        ~expect_hash:rb.Layout.root_dir_hash);
  { dirs = !dirs; files = !files; bytes = !bytes; problems = List.rev !problems }

let file_block_keys t path =
  flush t;
  match lookup (live t) path with
  | Some (_, e) when e.Layout.kind = Layout.File ->
      e.Layout.child_key
      :: data_keys
           (read_inode t ~key:e.Layout.child_key ~expect_hash:e.Layout.child_hash ~what:path)
  | _ -> raise Not_found
