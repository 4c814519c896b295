(* Slot-path components representable before hashing kicks in. *)
let max_levels = 12
let max_slot = 0xffff
let volume_bytes = 20

type fields = {
  volume : string;
  slots : int array;
  remainder_hash : int64;
  block : int64;
  version : int32;
}

let put_int64 b off v =
  for i = 0 to 7 do
    let shift = 8 * (7 - i) in
    Bytes.set b (off + i)
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v shift) 0xFFL)))
  done

let get_int64 s off =
  let acc = ref 0L in
  for i = 0 to 7 do
    acc := Int64.(logor (shift_left !acc 8) (of_int (Char.code s.[off + i])))
  done;
  !acc

let put_int32 b off v =
  for i = 0 to 3 do
    let shift = 8 * (3 - i) in
    Bytes.set b (off + i)
      (Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical v shift) 0xFFl)))
  done

let get_int32 s off =
  let acc = ref 0l in
  for i = 0 to 3 do
    acc := Int32.(logor (shift_left !acc 8) (of_int (Char.code s.[off + i])))
  done;
  !acc

let encode f =
  if String.length f.volume <> volume_bytes then
    invalid_arg "Encoding.encode: volume id must be 20 bytes";
  if Array.length f.slots > max_levels then
    invalid_arg "Encoding.encode: too many slot levels";
  Array.iter
    (fun s ->
      if s < 1 || s > max_slot then
        invalid_arg "Encoding.encode: slot out of range 1..65535")
    f.slots;
  let b = Bytes.make Key.size '\000' in
  Bytes.blit_string f.volume 0 b 0 volume_bytes;
  Array.iteri
    (fun i s ->
      let off = volume_bytes + (2 * i) in
      Bytes.set b off (Char.chr (s lsr 8));
      Bytes.set b (off + 1) (Char.chr (s land 0xff)))
    f.slots;
  put_int64 b 44 f.remainder_hash;
  put_int64 b 52 f.block;
  put_int32 b 60 f.version;
  Key.of_string (Bytes.unsafe_to_string b)

let decode key =
  let s = Key.to_string key in
  let volume = String.sub s 0 volume_bytes in
  let raw_slots =
    Array.init max_levels (fun i ->
        let off = volume_bytes + (2 * i) in
        (Char.code s.[off] lsl 8) lor Char.code s.[off + 1])
  in
  (* Depth is the number of leading non-zero slots. *)
  let depth = ref 0 in
  (try
     for i = 0 to max_levels - 1 do
       if raw_slots.(i) = 0 then raise Exit;
       incr depth
     done
   with Exit -> ());
  {
    volume;
    slots = Array.sub raw_slots 0 !depth;
    remainder_hash = get_int64 s 44;
    block = get_int64 s 52;
    version = get_int32 s 60;
  }

let volume_id name = Hashing.bytes volume_bytes ("volume:" ^ name)

let split_slots slots =
  let rec take n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> take (n - 1) (x :: acc) rest
  in
  take max_levels [] slots

let remainder_hash_of = function
  | [] -> 0L
  | rest ->
      Hashing.int64_of (String.concat "/" (List.map string_of_int rest))

let of_slot_path ~volume ~slots ~block ~version =
  let head, rest = split_slots slots in
  encode
    {
      volume;
      slots = Array.of_list head;
      remainder_hash = remainder_hash_of rest;
      block;
      version;
    }

let slot_prefix_key ~volume ~slots =
  let head, rest = split_slots slots in
  encode
    {
      volume;
      slots = Array.of_list head;
      remainder_hash = remainder_hash_of rest;
      block = 0L;
      version = 0l;
    }

let slot_prefix_upper_bound ~volume ~slots =
  let lo = slot_prefix_key ~volume ~slots in
  let b = Bytes.of_string (Key.to_string lo) in
  let depth = List.length slots in
  (* Saturate every field below the fixed prefix.  When the path is
     deeper than [max_levels] the remainder hash pins an exact subtree,
     so only the block/version fields vary under it. *)
  let first_free =
    if depth > max_levels then 52 else volume_bytes + (2 * depth)
  in
  for i = first_free to Key.size - 1 do
    Bytes.set b i '\255'
  done;
  Key.of_string (Bytes.unsafe_to_string b)
