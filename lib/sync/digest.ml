module Key = D2_keyspace.Key
module Crc32c = D2_segstore.Crc32c

type entry = { version : Version.t; deleted : bool }

let fanout_bits = 4
let fanout = 1 lsl fanout_bits
let max_bits = 28

(* Key.hash is already a well-mixed 62-bit value; bucketing consumes
   its top [max_bits] bits most-significant first, so a (prefix, bits)
   pair addresses one subtree of a 16-ary trie over hash space. *)
let hash_bits key = (Key.hash key lsr (62 - max_bits)) land ((1 lsl max_bits) - 1)

let in_bucket key ~prefix ~bits =
  bits = 0 || hash_bits key lsr (max_bits - bits) = prefix

let child_index key ~bits =
  hash_bits key lsr (max_bits - bits - fanout_bits) land (fanout - 1)

(* The key, the encoded version and the flag, laid end to end in one
   per-domain buffer, so the CRC is one stub call and allocates
   nothing; CRC-32C chains, so this is the CRC of the three pieces
   taken in turn. *)
let crc_scratch =
  Domain.DLS.new_key (fun () -> Bytes.create (Key.size + Version.size + 1))

let entry_crc key version deleted =
  let b = Domain.DLS.get crc_scratch in
  Bytes.blit_string (Key.to_string key) 0 b 0 Key.size;
  Version.encode_into version b ~off:Key.size;
  let n = Key.size + Version.size in
  Bytes.unsafe_set b n (if deleted then '\001' else '\000');
  Crc32c.bytes b ~pos:0 ~len:(n + 1)

let mask32 = 0xffff_ffff

let children ~iter ~prefix ~bits =
  if bits + fanout_bits > max_bits then
    invalid_arg "Digest.children: probe below max_bits";
  let sums = Array.make fanout 0 and counts = Array.make fanout 0 in
  iter (fun key e ->
      if in_bucket key ~prefix ~bits then begin
        let i = child_index key ~bits in
        sums.(i) <- (sums.(i) + entry_crc key e.version e.deleted) land mask32;
        counts.(i) <- counts.(i) + 1
      end);
  Array.init fanout (fun i -> (sums.(i), counts.(i)))

let max_items = 256

(* A bucket this deep holding more than [max_items] entries would take
   ~2^28 hash collisions; truncating the sorted list (both sides drop
   the same tail region) keeps a key exchange bounded, and the next
   session finishes the job. *)
let items ~iter ~prefix ~bits =
  let acc = ref [] in
  iter (fun key e ->
      if in_bucket key ~prefix ~bits then
        acc := (key, e.version, e.deleted) :: !acc);
  List.sort (fun (a, _, _) (b, _, _) -> Key.compare a b) !acc
  |> List.filteri (fun i _ -> i < max_items)
