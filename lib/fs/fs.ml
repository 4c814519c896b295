module Key = D2_keyspace.Key
module Encoding = D2_keyspace.Encoding
module Keygen = D2_keyspace.Keygen
module Cluster = D2_store.Cluster
module Engine = D2_simnet.Engine
module Block_cache = D2_cache.Block_cache

type mode = D2 | Traditional | Traditional_file

exception Integrity_violation of string

type pending_write = { data : string; token : int }

type t = {
  cluster : Cluster.t;
  volume_name : string;
  vol_id : string;
  mode : mode;
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

let mode t = t.mode
let volume t = t.volume_name
let blocks_fetched t = t.fetches

(* {1 Key construction}

   Block-number convention inside one object's key space:
   0 = the volume root block (only at the empty slot path),
   1 = the object's metadata block (directory block or inode),
   2+i = the i-th data block. *)

let meta_block_num = 1L
let data_block_num i = Int64.of_int (2 + i)

let meta_key t ~path ~slots ~gen =
  let version = Int32.of_int gen in
  match t.mode with
  | D2 ->
      Encoding.of_slot_path ~volume:t.vol_id ~slots ~block:meta_block_num ~version
  | Traditional ->
      Keygen.traditional_block ~volume:t.volume_name ~path ~block:0L ~version
  | Traditional_file ->
      Keygen.traditional_file ~volume:t.volume_name ~path ~block:0L ~version

let data_key t ~path ~slots ~index ~gen =
  let version = Int32.of_int gen in
  match t.mode with
  | D2 ->
      Encoding.of_slot_path ~volume:t.vol_id ~slots ~block:(data_block_num index)
        ~version
  | Traditional ->
      Keygen.traditional_block ~volume:t.volume_name ~path
        ~block:(Int64.of_int (1 + index))
        ~version
  | Traditional_file ->
      Keygen.traditional_file ~volume:t.volume_name ~path
        ~block:(Int64.of_int (1 + index))
        ~version

let root_key_of ~mode ~volume_name ~vol_id =
  match mode with
  | D2 -> Encoding.of_slot_path ~volume:vol_id ~slots:[] ~block:0L ~version:0l
  | Traditional ->
      Keygen.traditional_block ~volume:volume_name ~path:"\000root" ~block:0L
        ~version:0l
  | Traditional_file ->
      Keygen.traditional_file ~volume:volume_name ~path:"\000root" ~block:0L
        ~version:0l

(* {1 Path handling} *)

let components path =
  if String.length path = 0 || path.[0] <> '/' then
    invalid_arg (Printf.sprintf "Fs: path %S must be absolute" path);
  List.filter (fun c -> c <> "") (String.split_on_char '/' path)

let split_parent path =
  match List.rev (components path) with
  | [] -> invalid_arg "Fs: the root directory is not a file"
  | name :: rev_parents -> (List.rev rev_parents, name)

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
  let signature =
    Layout.sign_root ~volume:t.volume_name ~root_dir_key ~root_dir_hash ~version
  in
  let rb =
    {
      Layout.volume = t.volume_name;
      root_dir_key;
      root_dir_hash;
      root_version = version;
      signature;
    }
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

(* {1 Directory chain walking}

   A [link] is one resolved directory along a path: its path string,
   its current key and block, and the name it has in its parent. *)

type link = { lpath : string; lkey : Key.t; ldb : Layout.dir_block }

let root_dir_link t =
  let rb = read_root t in
  let db =
    read_dir t ~key:rb.Layout.root_dir_key ~expect_hash:rb.Layout.root_dir_hash
      ~what:"/"
  in
  { lpath = "/"; lkey = rb.Layout.root_dir_key; ldb = db }

let find_entry db name =
  List.find_opt (fun (e : Layout.dir_entry) -> e.Layout.name = name) db.Layout.entries

let child_path parent name = if parent = "/" then "/" ^ name else parent ^ "/" ^ name

(* Walk down [comps], returning links root..last. Raises Not_found on
   a missing component and Invalid_argument if one is a file. *)
let resolve_dir_chain t comps =
  let rec go acc (link : link) = function
    | [] -> List.rev (link :: acc)
    | name :: rest -> (
        match find_entry link.ldb name with
        | None -> raise Not_found
        | Some e when e.Layout.kind = Layout.File ->
            invalid_arg (Printf.sprintf "Fs: %s is a file, not a directory" name)
        | Some e ->
            let path = child_path link.lpath name in
            let db =
              read_dir t ~key:e.Layout.child_key ~expect_hash:e.Layout.child_hash
                ~what:path
            in
            go (link :: acc) { lpath = path; lkey = e.Layout.child_key; ldb = db } rest)
  in
  go [] (root_dir_link t) comps

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

(* Re-publish a modified directory chain bottom-up: each directory gets
   a new generation (hence a new key), its parent's entry is updated,
   and finally the root block is rewritten in place (§3). *)
let commit_chain t (chain : link list) (new_last_db : Layout.dir_block) =
  let fresh_gen () =
    let g = t.next_gen in
    t.next_gen <- t.next_gen + 1;
    g
  in
  let rec go = function
    | [] -> assert false
    | [ last ] ->
        let db = { new_last_db with Layout.dir_generation = fresh_gen () } in
        (last, db)
    | link :: rest ->
        let (child, child_db) = go rest in
        let payload = Layout.encode (Layout.Directory child_db) in
        let new_key =
          meta_key t ~path:child.lpath ~slots:child_db.Layout.dir_slots
            ~gen:child_db.Layout.dir_generation
        in
        put_block t ~key:new_key ~payload;
        if not (Key.equal new_key child.lkey) then
          Cluster.remove t.cluster ~key:child.lkey ();
        let child_name =
          match String.rindex_opt child.lpath '/' with
          | Some i -> String.sub child.lpath (i + 1) (String.length child.lpath - i - 1)
          | None -> assert false
        in
        let entries =
          List.map
            (fun (e : Layout.dir_entry) ->
              if e.Layout.name = child_name then
                { e with Layout.child_key = new_key; child_hash = Layout.content_hash payload }
              else e)
            link.ldb.Layout.entries
        in
        let db =
          { link.ldb with Layout.entries; dir_generation = fresh_gen () }
        in
        (link, db)
  in
  let (root_link, root_db) = go chain in
  let payload = Layout.encode (Layout.Directory root_db) in
  let new_root_dir_key =
    meta_key t ~path:"/" ~slots:[] ~gen:root_db.Layout.dir_generation
  in
  put_block t ~key:new_root_dir_key ~payload;
  if not (Key.equal new_root_dir_key root_link.lkey) then
    Cluster.remove t.cluster ~key:root_link.lkey ();
  let rb = read_root t in
  write_root t ~root_dir_key:new_root_dir_key
    ~root_dir_hash:(Layout.content_hash payload)
    ~version:(rb.Layout.root_version + 1)

(* {1 Creation} *)

let create ~cluster ~volume ~mode ?(write_back = true) () =
  let vol_id = Encoding.volume_id volume in
  let root_key = root_key_of ~mode ~volume_name:volume ~vol_id in
  let t =
    {
      cluster;
      volume_name = volume;
      vol_id;
      mode;
      write_back;
      wb_window = 30.0;
      pending = Hashtbl.create 32;
      warm = Block_cache.create ();
      next_token = 0;
      next_gen = 1;
      fetches = 0;
      root_key;
    }
  in
  (* Empty root directory + signed root block. *)
  let root_db =
    { Layout.dir_slots = []; dir_generation = 0; reserved_slots = []; entries = [] }
  in
  let payload = Layout.encode (Layout.Directory root_db) in
  let root_dir_key = meta_key t ~path:"/" ~slots:[] ~gen:0 in
  put_block t ~key:root_dir_key ~payload;
  write_root t ~root_dir_key ~root_dir_hash:(Layout.content_hash payload) ~version:0;
  t

(* {1 mkdir} *)

let rec ensure_dir_chain t comps =
  match resolve_dir_chain t comps with
  | chain -> chain
  | exception Not_found ->
      (* Create the first missing component, then retry. *)
      let rec first_missing acc (link : link) = function
        | [] -> None
        | name :: rest -> (
            match find_entry link.ldb name with
            | None -> Some (List.rev (link :: acc), name)
            | Some e when e.Layout.kind = Layout.File ->
                invalid_arg (Printf.sprintf "Fs: %s is a file" name)
            | Some e ->
                let path = child_path link.lpath name in
                let db =
                  read_dir t ~key:e.Layout.child_key
                    ~expect_hash:e.Layout.child_hash ~what:path
                in
                first_missing (link :: acc)
                  { lpath = path; lkey = e.Layout.child_key; ldb = db }
                  rest)
      in
      (match first_missing [] (root_dir_link t) comps with
      | None -> assert false
      | Some (chain, name) ->
          let parent = List.nth chain (List.length chain - 1) in
          let slot = fresh_slot parent.ldb in
          let child_slots = parent.ldb.Layout.dir_slots @ [ slot ] in
          let child_path_s = child_path parent.lpath name in
          let child_db =
            {
              Layout.dir_slots = child_slots;
              dir_generation = 0;
              reserved_slots = [];
              entries = [];
            }
          in
          let payload = Layout.encode (Layout.Directory child_db) in
          let child_key = meta_key t ~path:child_path_s ~slots:child_slots ~gen:0 in
          put_block t ~key:child_key ~payload;
          let entry =
            {
              Layout.name;
              slot;
              kind = Layout.Dir;
              child_key;
              child_hash = Layout.content_hash payload;
            }
          in
          let new_parent_db =
            { parent.ldb with Layout.entries = entry :: parent.ldb.Layout.entries }
          in
          commit_chain t chain new_parent_db);
      ensure_dir_chain t comps

let mkdir t path = ignore (ensure_dir_chain t (components path))

(* {1 Write path} *)

let chunks_of data =
  let n = String.length data in
  if n = 0 then [ "" ]
  else begin
    let count = (n + Layout.max_block_bytes - 1) / Layout.max_block_bytes in
    List.init count (fun i ->
        let off = i * Layout.max_block_bytes in
        String.sub data off (min Layout.max_block_bytes (n - off)))
  end

let commit_file t ~path ~data =
  let parents, name = split_parent path in
  let chain = ensure_dir_chain t parents in
  let parent = List.nth chain (List.length chain - 1) in
  let old_entry = find_entry parent.ldb name in
  let slot, gen, old_keys =
    match old_entry with
    | Some e when e.Layout.kind = Layout.Dir ->
        invalid_arg (Printf.sprintf "Fs: %s is a directory" path)
    | Some e ->
        let ib =
          read_inode t ~key:e.Layout.child_key ~expect_hash:e.Layout.child_hash
            ~what:path
        in
        let data_keys =
          match ib.Layout.contents with
          | Layout.Inline _ -> []
          | Layout.Blocks bs -> List.map fst bs
        in
        ignore ib.Layout.generation;
        let gen = t.next_gen in
        t.next_gen <- t.next_gen + 1;
        (e.Layout.slot, gen, e.Layout.child_key :: data_keys)
    | None ->
        let gen = t.next_gen in
        t.next_gen <- t.next_gen + 1;
        (fresh_slot parent.ldb, gen, [])
  in
  let slots = parent.ldb.Layout.dir_slots @ [ slot ] in
  let contents =
    if String.length data <= Layout.inline_threshold then Layout.Inline data
    else begin
      let blocks =
        List.mapi
          (fun i chunk ->
            let key = data_key t ~path ~slots ~index:i ~gen in
            put_block t ~key ~payload:(Layout.encode (Layout.Data chunk));
            (key, Layout.content_hash (Layout.encode (Layout.Data chunk))))
          (chunks_of data)
      in
      Layout.Blocks blocks
    end
  in
  let inode =
    { Layout.size = String.length data; generation = gen; contents }
  in
  let payload = Layout.encode (Layout.Inode inode) in
  let inode_key = meta_key t ~path ~slots ~gen in
  put_block t ~key:inode_key ~payload;
  List.iter (fun k -> Cluster.remove t.cluster ~key:k ()) old_keys;
  let entry =
    {
      Layout.name;
      slot;
      kind = Layout.File;
      child_key = inode_key;
      child_hash = Layout.content_hash payload;
    }
  in
  let entries =
    entry :: List.filter (fun (e : Layout.dir_entry) -> e.Layout.name <> name)
               parent.ldb.Layout.entries
  in
  commit_chain t chain { parent.ldb with Layout.entries }

let flush_one t path =
  match Hashtbl.find_opt t.pending path with
  | None -> ()
  | Some pw ->
      Hashtbl.remove t.pending path;
      commit_file t ~path ~data:pw.data

let write_file t ~path ~data =
  ignore (split_parent path);
  if not t.write_back then commit_file t ~path ~data
  else begin
    t.next_token <- t.next_token + 1;
    let token = t.next_token in
    Hashtbl.replace t.pending path { data; token };
    let engine = Cluster.engine t.cluster in
    Engine.schedule_in engine ~delay:t.wb_window (fun () ->
        match Hashtbl.find_opt t.pending path with
        | Some pw when pw.token = token -> flush_one t path
        | Some _ | None -> ())
  end

let flush t =
  let paths = Hashtbl.fold (fun p _ acc -> p :: acc) t.pending [] in
  List.iter (flush_one t) (List.sort compare paths)

(* {1 Range IO (NFS-style)}

   Partial reads fetch only the blocks covering the range; partial
   writes read-modify-write the touched blocks while untouched data
   blocks keep their existing keys and hashes (only the inode and the
   metadata chain are re-published). *)

let block_span ~offset ~length =
  let first = offset / Layout.max_block_bytes in
  let last = (offset + length - 1) / Layout.max_block_bytes in
  (first, last)

let splice ~old ~offset ~data =
  let new_len = max (String.length old) (offset + String.length data) in
  let b = Bytes.make new_len '\000' in
  Bytes.blit_string old 0 b 0 (String.length old);
  Bytes.blit_string data 0 b offset (String.length data);
  Bytes.unsafe_to_string b

let commit_range t ~path ~offset ~data =
  let parents, name = split_parent path in
  let chain = ensure_dir_chain t parents in
  let parent = List.nth chain (List.length chain - 1) in
  match find_entry parent.ldb name with
  | Some e when e.Layout.kind = Layout.Dir ->
      invalid_arg (Printf.sprintf "Fs: %s is a directory" path)
  | None ->
      (* Creating: zero-fill up to the offset. *)
      commit_file t ~path ~data:(splice ~old:"" ~offset ~data)
  | Some e -> (
      let ib =
        read_inode t ~key:e.Layout.child_key ~expect_hash:e.Layout.child_hash
          ~what:path
      in
      match ib.Layout.contents with
      | Layout.Inline old ->
          (* Tiny file: rewrite whole (may grow into block storage). *)
          commit_file t ~path ~data:(splice ~old ~offset ~data)
      | Layout.Blocks old_blocks ->
          let old_size = ib.Layout.size in
          let new_size = max old_size (offset + String.length data) in
          let gen = t.next_gen in
          t.next_gen <- t.next_gen + 1;
          let slots = parent.ldb.Layout.dir_slots @ [ e.Layout.slot ] in
          let old_arr = Array.of_list old_blocks in
          let nblocks = (max 1 new_size + Layout.max_block_bytes - 1) / Layout.max_block_bytes in
          let first, last = block_span ~offset ~length:(max 1 (String.length data)) in
          let removed = ref [] in
          let fetch_old i =
            if i < Array.length old_arr then begin
              let k, h = old_arr.(i) in
              match fetch_verified t ~key:k ~expect_hash:h ~what:path with
              | Layout.Data s -> s
              | _ -> raise (Integrity_violation (path ^ ": expected a data block"))
            end
            else ""
          in
          let blocks =
            List.init nblocks (fun i ->
                let block_start = i * Layout.max_block_bytes in
                let block_end_new = min new_size (block_start + Layout.max_block_bytes) in
                let touched =
                  (String.length data > 0 && i >= first && i <= last)
                  || (* growth re-shapes blocks past the old end *)
                  block_end_new > old_size
                in
                if (not touched) && i < Array.length old_arr then old_arr.(i)
                else begin
                  (* Zero-filled block of its new length, overlaid with
                     the old bytes and then the written range. *)
                  let block_len = block_end_new - block_start in
                  let old_content = fetch_old i in
                  let b = Bytes.make block_len '\000' in
                  Bytes.blit_string old_content 0 b 0
                    (min (String.length old_content) block_len);
                  let lo = max block_start offset in
                  let hi = min block_end_new (offset + String.length data) in
                  if hi > lo then
                    Bytes.blit_string data (lo - offset) b (lo - block_start) (hi - lo);
                  let content = Bytes.to_string b in
                  let key = data_key t ~path ~slots ~index:i ~gen in
                  put_block t ~key ~payload:(Layout.encode (Layout.Data content));
                  if i < Array.length old_arr then removed := fst old_arr.(i) :: !removed;
                  (key, Layout.content_hash (Layout.encode (Layout.Data content)))
                end)
          in
          let inode = { Layout.size = new_size; generation = gen; contents = Layout.Blocks blocks } in
          let payload = Layout.encode (Layout.Inode inode) in
          let inode_key = meta_key t ~path ~slots ~gen in
          put_block t ~key:inode_key ~payload;
          Cluster.remove t.cluster ~key:e.Layout.child_key ();
          List.iter (fun k -> Cluster.remove t.cluster ~key:k ()) !removed;
          let entry =
            { e with Layout.child_key = inode_key; child_hash = Layout.content_hash payload }
          in
          let entries =
            entry
            :: List.filter (fun (x : Layout.dir_entry) -> x.Layout.name <> name)
                 parent.ldb.Layout.entries
          in
          commit_chain t chain { parent.ldb with Layout.entries })

let write_range t ~path ~offset ~data =
  if offset < 0 then invalid_arg "Fs.write_range: negative offset";
  ignore (split_parent path);
  match Hashtbl.find_opt t.pending path with
  | Some pw ->
      (* Splice into the buffered content; the pending flush covers it. *)
      t.next_token <- t.next_token + 1;
      Hashtbl.replace t.pending path
        { data = splice ~old:pw.data ~offset ~data; token = t.next_token }
  | None -> commit_range t ~path ~offset ~data

(* {1 Read path} *)

let lookup_entry t path =
  let parents, name = split_parent path in
  let chain = resolve_dir_chain t parents in
  let parent = List.nth chain (List.length chain - 1) in
  (chain, parent, name, find_entry parent.ldb name)

let read_file t path =
  match Hashtbl.find_opt t.pending path with
  | Some pw -> Some pw.data
  | None -> (
      match lookup_entry t path with
      | exception Not_found -> None
      | _, _, _, None -> None
      | _, _, _, Some e when e.Layout.kind = Layout.Dir -> None
      | _, _, _, Some e ->
          let ib =
            read_inode t ~key:e.Layout.child_key ~expect_hash:e.Layout.child_hash
              ~what:path
          in
          (match ib.Layout.contents with
          | Layout.Inline s -> Some s
          | Layout.Blocks bs ->
              let buf = Buffer.create ib.Layout.size in
              List.iter
                (fun (k, h) ->
                  match fetch_verified t ~key:k ~expect_hash:h ~what:path with
                  | Layout.Data s -> Buffer.add_string buf s
                  | _ -> raise (Integrity_violation (path ^ ": expected a data block")))
                bs;
              Some (Buffer.contents buf)))

let read_range t ~path ~offset ~length =
  if offset < 0 then invalid_arg "Fs.read_range: negative offset";
  if length < 0 then invalid_arg "Fs.read_range: negative length";
  match Hashtbl.find_opt t.pending path with
  | Some pw ->
      let n = String.length pw.data in
      if offset >= n then Some ""
      else Some (String.sub pw.data offset (min length (n - offset)))
  | None -> (
      match lookup_entry t path with
      | exception Not_found -> None
      | _, _, _, None -> None
      | _, _, _, Some e when e.Layout.kind = Layout.Dir -> None
      | _, _, _, Some e -> (
          let ib =
            read_inode t ~key:e.Layout.child_key ~expect_hash:e.Layout.child_hash
              ~what:path
          in
          let size = ib.Layout.size in
          if offset >= size || length = 0 then Some ""
          else begin
            let length = min length (size - offset) in
            match ib.Layout.contents with
            | Layout.Inline s -> Some (String.sub s offset length)
            | Layout.Blocks bs ->
                (* Fetch only the blocks covering the range. *)
                let first = offset / Layout.max_block_bytes in
                let last = (offset + length - 1) / Layout.max_block_bytes in
                let arr = Array.of_list bs in
                let buf = Buffer.create length in
                for i = first to last do
                  let k, h = arr.(i) in
                  match fetch_verified t ~key:k ~expect_hash:h ~what:path with
                  | Layout.Data s -> Buffer.add_string buf s
                  | _ -> raise (Integrity_violation (path ^ ": expected a data block"))
                done;
                let span = Buffer.contents buf in
                Some (String.sub span (offset - (first * Layout.max_block_bytes)) length)
          end))

let exists t path =
  if path = "/" then true
  else if Hashtbl.mem t.pending path then true
  else
    match lookup_entry t path with
    | exception Not_found -> false
    | _, _, _, entry -> entry <> None

let is_dir t path =
  if path = "/" then true
  else
    match lookup_entry t path with
    | exception Not_found -> false
    | _, _, _, Some e -> e.Layout.kind = Layout.Dir
    | _, _, _, None -> false

let file_size t path =
  match Hashtbl.find_opt t.pending path with
  | Some pw -> Some (String.length pw.data)
  | None -> (
      match lookup_entry t path with
      | exception Not_found -> None
      | _, _, _, Some e when e.Layout.kind = Layout.File ->
          let ib =
            read_inode t ~key:e.Layout.child_key ~expect_hash:e.Layout.child_hash
              ~what:path
          in
          Some ib.Layout.size
      | _ -> None)

let list_dir t path =
  let chain = resolve_dir_chain t (components path) in
  let dir = List.nth chain (List.length chain - 1) in
  let committed =
    List.map
      (fun (e : Layout.dir_entry) -> (e.Layout.name, e.Layout.kind = Layout.Dir))
      dir.ldb.Layout.entries
  in
  let prefix = if dir.lpath = "/" then "/" else dir.lpath ^ "/" in
  let pending =
    Hashtbl.fold
      (fun p _ acc ->
        if String.length p > String.length prefix
           && String.sub p 0 (String.length prefix) = prefix
           && not (String.contains_from p (String.length prefix) '/')
        then
          let name = String.sub p (String.length prefix) (String.length p - String.length prefix) in
          if List.mem_assoc name committed then acc else (name, false) :: acc
        else acc)
      t.pending []
  in
  List.sort compare (committed @ pending)

(* {1 Delete and rename} *)

let delete t path =
  match Hashtbl.find_opt t.pending path with
  | Some _ -> Hashtbl.remove t.pending path
  | None -> (
      let chain, parent, name, entry = lookup_entry t path in
      match entry with
      | None -> raise Not_found
      | Some e ->
          (match e.Layout.kind with
          | Layout.Dir ->
              let db =
                read_dir t ~key:e.Layout.child_key ~expect_hash:e.Layout.child_hash
                  ~what:path
              in
              if db.Layout.entries <> [] then
                invalid_arg (Printf.sprintf "Fs: directory %s is not empty" path);
              Cluster.remove t.cluster ~key:e.Layout.child_key ()
          | Layout.File ->
              let ib =
                read_inode t ~key:e.Layout.child_key ~expect_hash:e.Layout.child_hash
                  ~what:path
              in
              (match ib.Layout.contents with
              | Layout.Inline _ -> ()
              | Layout.Blocks bs ->
                  List.iter (fun (k, _) -> Cluster.remove t.cluster ~key:k ()) bs);
              Cluster.remove t.cluster ~key:e.Layout.child_key ());
          let entries =
            List.filter (fun (x : Layout.dir_entry) -> x.Layout.name <> name)
              parent.ldb.Layout.entries
          in
          commit_chain t chain { parent.ldb with Layout.entries })

let rename t ~src ~dst =
  (match Hashtbl.find_opt t.pending src with
  | Some pw ->
      Hashtbl.remove t.pending src;
      commit_file t ~path:src ~data:pw.data
  | None -> ());
  let _, _, _, src_entry = lookup_entry t src in
  let e = match src_entry with None -> raise Not_found | Some e -> e in
  (* Remove from the source parent, reserving the freed slot: the
     renamed object keeps its original keys (§4.2), so a new child
     here must never be assigned the same slot path. *)
  let chain, parent, src_name, _ = lookup_entry t src in
  let entries =
    List.filter (fun (x : Layout.dir_entry) -> x.Layout.name <> src_name)
      parent.ldb.Layout.entries
  in
  let reserved_slots = e.Layout.slot :: parent.ldb.Layout.reserved_slots in
  commit_chain t chain { parent.ldb with Layout.entries; reserved_slots };
  (* Then link into the destination parent, keeping the original keys
     (§4.2: renamed objects stay at their key-space home). *)
  let dst_parents, dst_name = split_parent dst in
  let chain = ensure_dir_chain t dst_parents in
  let parent = List.nth chain (List.length chain - 1) in
  if find_entry parent.ldb dst_name <> None then
    invalid_arg (Printf.sprintf "Fs: destination %s exists" dst);
  let slot = fresh_slot parent.ldb in
  let entry = { e with Layout.name = dst_name; slot } in
  let entries = entry :: parent.ldb.Layout.entries in
  commit_chain t chain { parent.ldb with Layout.entries }

(* {1 Snapshots}

   A snapshot pins the root directory pointer captured from the root
   block; because every metadata update publishes *new* keys and only
   removes the old ones after the store's delayed-removal window, the
   whole captured tree stays readable for that window after any
   overwrite — the paper's stale-but-consistent reader semantics. *)

type snapshot = {
  snap_fs : t;
  snap_root_dir_key : Key.t;
  snap_root_dir_hash : string;
}

let snapshot t =
  flush t;
  let rb = read_root t in
  {
    snap_fs = t;
    snap_root_dir_key = rb.Layout.root_dir_key;
    snap_root_dir_hash = rb.Layout.root_dir_hash;
  }

(* Resolve a path from the pinned root; Not_found if a block aged out. *)
let snapshot_entry s path =
  let t = s.snap_fs in
  let comps = components path in
  let rec walk ~dpath ~key ~hash = function
    | [] -> `Dir (read_dir t ~key ~expect_hash:hash ~what:dpath)
    | name :: rest -> (
        let db = read_dir t ~key ~expect_hash:hash ~what:dpath in
        match find_entry db name with
        | None -> `Missing
        | Some e -> (
            let cpath = child_path dpath name in
            match (e.Layout.kind, rest) with
            | Layout.File, [] -> `File (cpath, e)
            | Layout.File, _ ->
                invalid_arg (Printf.sprintf "Fs: %s is a file" cpath)
            | Layout.Dir, _ ->
                walk ~dpath:cpath ~key:e.Layout.child_key ~hash:e.Layout.child_hash rest))
  in
  walk ~dpath:"/" ~key:s.snap_root_dir_key ~hash:s.snap_root_dir_hash comps

let snapshot_read s path =
  let t = s.snap_fs in
  match snapshot_entry s path with
  | `Missing -> None
  | `Dir _ -> None
  | `File (what, e) -> (
      let ib =
        read_inode t ~key:e.Layout.child_key ~expect_hash:e.Layout.child_hash ~what
      in
      match ib.Layout.contents with
      | Layout.Inline str -> Some str
      | Layout.Blocks bs ->
          let buf = Buffer.create ib.Layout.size in
          List.iter
            (fun (k, h) ->
              match fetch_verified t ~key:k ~expect_hash:h ~what with
              | Layout.Data str -> Buffer.add_string buf str
              | _ -> raise (Integrity_violation (what ^ ": expected a data block")))
            bs;
          Some (Buffer.contents buf))

let snapshot_list s path =
  match snapshot_entry s path with
  | `Missing -> raise Not_found
  | `File _ -> raise Not_found
  | `Dir db ->
      List.sort compare
        (List.map
           (fun (e : Layout.dir_entry) -> (e.Layout.name, e.Layout.kind = Layout.Dir))
           db.Layout.entries)

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
              (fun i (k, h) ->
                match fetch_verified t ~key:k ~expect_hash:h ~what:path with
                | Layout.Data s -> bytes := !bytes + String.length s
                | _ -> defect "%s: block %d is not a data block" path i
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
  match lookup_entry t path with
  | _, _, _, Some e when e.Layout.kind = Layout.File ->
      let ib =
        read_inode t ~key:e.Layout.child_key ~expect_hash:e.Layout.child_hash
          ~what:path
      in
      e.Layout.child_key
      ::
      (match ib.Layout.contents with
      | Layout.Inline _ -> []
      | Layout.Blocks bs -> List.map fst bs)
  | _ -> raise Not_found
