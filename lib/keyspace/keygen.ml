let traditional_block ~volume ~path ~block ~version =
  Hashing.uniform_key
    (Printf.sprintf "tb|%s|%s|%Ld|%ld" volume path block version)

let traditional_file ~volume ~path ~block ~version =
  let prefix = Hashing.bytes 52 (Printf.sprintf "tf|%s|%s" volume path) in
  let b = Bytes.make Key.size '\000' in
  Bytes.blit_string prefix 0 b 0 52;
  for i = 0 to 7 do
    let shift = 8 * (7 - i) in
    Bytes.set b (52 + i)
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical block shift) 0xFFL)))
  done;
  for i = 0 to 3 do
    let shift = 8 * (3 - i) in
    Bytes.set b (60 + i)
      (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical version shift) 0xFFl)))
  done;
  Key.of_string (Bytes.unsafe_to_string b)

type mode = D2 | Traditional | Traditional_file

let mode_name = function
  | D2 -> "d2"
  | Traditional -> "traditional"
  | Traditional_file -> "traditional-file"

type policy = { mode : mode; volume : string; vol_id : string }

let policy mode ~volume = { mode; volume; vol_id = Encoding.volume_id volume }

(* Block [block] of one object: D2 numbers an object's blocks from 1
   under its slot path, since block 0 of the empty slot path is the
   volume root; the traditional policies number them from 0 under the
   path. *)
let object_key p ~path ~slots ~block ~version =
  match p.mode with
  | D2 ->
      Encoding.of_slot_path ~volume:p.vol_id ~slots
        ~block:(Int64.of_int (block + 1)) ~version
  | Traditional ->
      traditional_block ~volume:p.volume ~path ~block:(Int64.of_int block) ~version
  | Traditional_file ->
      traditional_file ~volume:p.volume ~path ~block:(Int64.of_int block) ~version

let root_key p =
  match p.mode with
  | D2 -> Encoding.of_slot_path ~volume:p.vol_id ~slots:[] ~block:0L ~version:0l
  | Traditional | Traditional_file ->
      object_key p ~path:"\000root" ~slots:[] ~block:0 ~version:0l

let meta_key p ~path ~slots ~version = object_key p ~path ~slots ~block:0 ~version

let data_key p ~path ~slots ~index ~version =
  object_key p ~path ~slots ~block:(1 + index) ~version
