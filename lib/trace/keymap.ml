module Key = D2_keyspace.Key
module Encoding = D2_keyspace.Encoding
module Keygen = D2_keyspace.Keygen
module Hashing = D2_keyspace.Hashing

type mode = Keygen.mode = D2 | Traditional | Traditional_file

let mode_name = Keygen.mode_name

(* Per-directory slot table: child name -> slot, plus a next-slot
   cursor.  Directories are identified by their full path string. *)
type dir_slots = {
  children : (string, int) Hashtbl.t;
  mutable next : int;
}

type t = {
  keys : Keygen.policy;
  dirs : (string, dir_slots) Hashtbl.t;
  slot_cache : (string, int list) Hashtbl.t;  (** full path -> slot path *)
}

let create mode ~volume =
  {
    keys = Keygen.policy mode ~volume;
    dirs = Hashtbl.create 256;
    slot_cache = Hashtbl.create 1024;
  }

let dir_slots t dir =
  match Hashtbl.find_opt t.dirs dir with
  | Some d -> d
  | None ->
      let d = { children = Hashtbl.create 8; next = 1 } in
      Hashtbl.replace t.dirs dir d;
      d

let slot_for t ~dir ~name =
  let d = dir_slots t dir in
  match Hashtbl.find_opt d.children name with
  | Some s -> s
  | None ->
      let s =
        if d.next <= Encoding.max_slot then begin
          let s = d.next in
          d.next <- d.next + 1;
          s
        end
        else
          (* Slot space exhausted: hash the name (paper §4.2 fn. 2). *)
          1 + Int64.to_int (Int64.rem (Hashing.int64_of name) (Int64.of_int Encoding.max_slot))
      in
      Hashtbl.replace d.children name s;
      s

let slot_path t ~path =
  match Hashtbl.find_opt t.slot_cache path with
  | Some slots -> slots
  | None ->
      let comps = List.filter (fun c -> c <> "") (String.split_on_char '/' path) in
      let rec walk dir acc = function
        | [] -> List.rev acc
        | name :: rest ->
            let s = slot_for t ~dir ~name in
            let child = dir ^ "/" ^ name in
            walk child (s :: acc) rest
      in
      let slots = walk "" [] comps in
      Hashtbl.replace t.slot_cache path slots;
      slots

let key_of t ~path ~block =
  (* Only D2 keys live under the slot path: no slots are assigned for
     the traditional policies. *)
  let slots =
    match t.keys.Keygen.mode with
    | D2 -> slot_path t ~path
    | Traditional | Traditional_file -> []
  in
  Keygen.data_key t.keys ~path ~slots ~index:block ~version:0l

let key_of_op t (o : Op.op) = key_of t ~path:o.Op.path ~block:o.Op.block
