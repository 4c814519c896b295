let block_size = 8192

type kind = Read | Write | Create | Delete

type op = {
  time : float;
  user : int;
  path : string;
  file : int;
  block : int;
  kind : kind;
  bytes : int;
}

type file_info = { file_id : int; file_path : string; file_bytes : int }

type t = {
  name : string;
  duration : float;
  users : int;
  ops : op array;
  initial_files : file_info array;
}

let blocks_of_bytes bytes = max 1 ((bytes + block_size - 1) / block_size)

let validate t =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  if t.duration <= 0.0 then fail "trace %s: non-positive duration" t.name;
  if t.users <= 0 then fail "trace %s: no users" t.name;
  let prev = ref neg_infinity in
  Array.iteri
    (fun i o ->
      if o.time < !prev then fail "trace %s: op %d out of order" t.name i;
      prev := o.time;
      if o.time < 0.0 || o.time > t.duration then
        fail "trace %s: op %d outside duration" t.name i;
      if o.user < 0 || o.user >= t.users then
        fail "trace %s: op %d bad user %d" t.name i o.user;
      if o.block < 0 then fail "trace %s: op %d negative block" t.name i;
      match o.kind with
      | Delete -> if o.bytes < 0 then fail "trace %s: op %d bad delete size" t.name i
      | Read | Write | Create ->
          if o.bytes <= 0 || o.bytes > block_size then
            fail "trace %s: op %d bad byte count %d" t.name i o.bytes)
    t.ops;
  Array.iter
    (fun f ->
      if f.file_bytes < 0 then fail "trace %s: negative initial file size" t.name)
    t.initial_files

let total_initial_bytes t =
  Array.fold_left (fun acc f -> acc + f.file_bytes) 0 t.initial_files

let count_kind t k =
  Array.fold_left (fun acc o -> if o.kind = k then acc + 1 else acc) 0 t.ops
