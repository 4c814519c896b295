module Key = D2_keyspace.Key

(* Kind codes for the unboxed kind column. *)
let kind_read = 0
let kind_write = 1
let kind_create = 2
let kind_delete = 3

let kind_code = function
  | Op.Read -> kind_read
  | Op.Write -> kind_write
  | Op.Create -> kind_create
  | Op.Delete -> kind_delete

let kind_of_code = function
  | 0 -> Op.Read
  | 1 -> Op.Write
  | 2 -> Op.Create
  | 3 -> Op.Delete
  | c -> invalid_arg (Printf.sprintf "Plan.kind_of_code: %d" c)

type key_policy = Writes_only | Reads_and_writes

let policy_name = function
  | Writes_only -> "writes"
  | Reads_and_writes -> "reads+writes"

type keyset = { op_keys : Key.t array; init_keys : Key.t array }

type t = {
  trace : Op.t;
  n : int;
  times : float array;
  users : int array;
  files : int array;
  blocks : int array;
  bytes : int array;
  kinds : int array;
  path_ids : int array;
  paths : string array;
  init_files : int array;
  init_path_ids : int array;
  init_offsets : int array;
  init_sizes : int array;
  keys : keyset D2_util.Memo.t;
}

let trace t = t.trace
let length t = t.n
let path t i = t.paths.(t.path_ids.(i))

let compile (tr : Op.t) =
  let n = Array.length tr.Op.ops in
  let nf = Array.length tr.Op.initial_files in
  let times = Array.make n 0.0 in
  let users = Array.make n 0 in
  let files = Array.make n 0 in
  let blocks = Array.make n 0 in
  let bytes = Array.make n 0 in
  let kinds = Array.make n 0 in
  let path_ids = Array.make n 0 in
  let interned : (string, int) Hashtbl.t = Hashtbl.create (4 * (nf + 16)) in
  let paths = D2_util.Vec.create () in
  let intern p =
    match Hashtbl.find_opt interned p with
    | Some id -> id
    | None ->
        let id = D2_util.Vec.length paths in
        D2_util.Vec.push paths p;
        Hashtbl.replace interned p id;
        id
  in
  (* Initial files first: their paths (and, during key building, their
     directory slots) come before any op's, the order in which a
     replay loads the initial data and then applies the ops. *)
  let init_files = Array.make nf 0 in
  let init_path_ids = Array.make nf 0 in
  let init_offsets = Array.make (nf + 1) 0 in
  let total_blocks = ref 0 in
  Array.iteri
    (fun f (fi : Op.file_info) ->
      init_files.(f) <- fi.Op.file_id;
      init_path_ids.(f) <- intern fi.Op.file_path;
      init_offsets.(f) <- !total_blocks;
      total_blocks := !total_blocks + Op.blocks_of_bytes fi.Op.file_bytes)
    tr.Op.initial_files;
  init_offsets.(nf) <- !total_blocks;
  let init_sizes = Array.make !total_blocks 0 in
  Array.iteri
    (fun f (fi : Op.file_info) ->
      let off = init_offsets.(f) in
      let nblocks = init_offsets.(f + 1) - off in
      for b = 0 to nblocks - 1 do
        init_sizes.(off + b) <-
          (if b = nblocks - 1 then begin
             let rem = fi.Op.file_bytes - (b * Op.block_size) in
             if rem = 0 then Op.block_size else rem
           end
           else Op.block_size)
      done)
    tr.Op.initial_files;
  Array.iteri
    (fun i (o : Op.op) ->
      times.(i) <- o.Op.time;
      users.(i) <- o.Op.user;
      files.(i) <- o.Op.file;
      blocks.(i) <- o.Op.block;
      bytes.(i) <- o.Op.bytes;
      kinds.(i) <- kind_code o.Op.kind;
      path_ids.(i) <- intern o.Op.path)
    tr.Op.ops;
  {
    trace = tr;
    n;
    times;
    users;
    files;
    blocks;
    bytes;
    kinds;
    path_ids;
    paths = D2_util.Vec.to_array paths;
    init_files;
    init_path_ids;
    init_offsets;
    init_sizes;
    keys = D2_util.Memo.create ();
  }

(* One compiled plan per trace, shared across every experiment, setup,
   node count and seed that replays it.  Keyed by physical identity —
   traces are memoized upstream ({!D2_experiments.Data}) and few, so a
   short association list under a mutex suffices and cannot confuse
   same-named traces generated at different scales. *)
let cache_mu = Mutex.create ()
let cache : (Op.t * t) list ref = ref []

let of_trace tr =
  Mutex.lock cache_mu;
  match List.find_opt (fun (t0, _) -> t0 == tr) !cache with
  | Some (_, plan) ->
      Mutex.unlock cache_mu;
      plan
  | None ->
      (* Compiling under the lock is fine: it is a few ms and only the
         first replay of a given trace pays it. *)
      let plan =
        match compile tr with
        | plan ->
            cache := (tr, plan) :: !cache;
            plan
        | exception e ->
            Mutex.unlock cache_mu;
            raise e
      in
      Mutex.unlock cache_mu;
      plan

(* Walk a fresh keymap in replay order: every initial file's blocks in file order, then the ops in
   trace order.  Which op kinds assign directory slots depends on the
   consumer: the §10 balance replay only keys mutations, while the §8
   availability and §9 performance replays also key every read.  Reads
   of never-written paths then claim slots, so the two policies can
   yield different D2 slot paths — each consumer must ask for the
   policy that matches what it replays. *)
let build_keys t ~mode ~volume ~policy =
  let km = Keymap.create mode ~volume in
  let nf = Array.length t.init_files in
  let init_keys = Array.make t.init_offsets.(nf) Key.zero in
  for f = 0 to nf - 1 do
    let path = t.paths.(t.init_path_ids.(f)) in
    let off = t.init_offsets.(f) in
    for j = off to t.init_offsets.(f + 1) - 1 do
      init_keys.(j) <- Keymap.key_of km ~path ~block:(j - off)
    done
  done;
  let op_keys = Array.make t.n Key.zero in
  for i = 0 to t.n - 1 do
    let k = t.kinds.(i) in
    if
      k = kind_write || k = kind_create
      || (k = kind_read && policy = Reads_and_writes)
    then op_keys.(i) <- Keymap.key_of km ~path:t.paths.(t.path_ids.(i)) ~block:t.blocks.(i)
  done;
  { op_keys; init_keys }

let replay_keys ?(volume = "vol") t ~mode ~policy =
  let key = Printf.sprintf "replay|%s|%s|%s" (Keymap.mode_name mode) volume (policy_name policy) in
  D2_util.Memo.get t.keys key (fun () -> build_keys t ~mode ~volume ~policy)

let init_keys t ~mode ~volume =
  let key = Printf.sprintf "init|%s|%s" (Keymap.mode_name mode) volume in
  (D2_util.Memo.get t.keys key (fun () ->
       let km = Keymap.create mode ~volume in
       let nf = Array.length t.init_files in
       let init_keys = Array.make t.init_offsets.(nf) Key.zero in
       for f = 0 to nf - 1 do
         let path = t.paths.(t.init_path_ids.(f)) in
         let off = t.init_offsets.(f) in
         for j = off to t.init_offsets.(f + 1) - 1 do
           init_keys.(j) <- Keymap.key_of km ~path ~block:(j - off)
         done
       done;
       { op_keys = [||]; init_keys }))
    .init_keys
