type t = string

let size = 64

let of_string s =
  if String.length s <> size then
    invalid_arg
      (Printf.sprintf "Key.of_string: expected %d bytes, got %d" size
         (String.length s));
  s

let to_string t = t
let compare = String.compare
let equal = String.equal

(* {1 Comparison fast path}

   [prefix_at t off] packs the top 62 bits of bytes [off .. off+7]
   into a non-negative OCaml int.  Its ordering agrees with the
   lexicographic ordering of those bytes, so two keys whose prefixes
   differ compare with one unboxed int comparison; only prefix ties
   (first 62 bits at [off] equal) need byte-wise comparison. *)

let max_prefix_offset = size - 8

let prefix_at t off = Int64.to_int (Int64.shift_right_logical (String.get_int64_be t off) 2)

let common_prefix_len a b =
  let n = ref 0 in
  while !n < size && a.[!n] = b.[!n] do incr n done;
  !n

let compare_head a b len =
  let rec go i =
    if i >= len then 0
    else
      let c = Char.compare a.[i] b.[i] in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let compare_from off a b =
  let rec go i =
    if i >= size then 0
    else
      let c = Char.compare a.[i] b.[i] in
      if c <> 0 then c else go (i + 1)
  in
  go off

(* {1 Sorted-key search}

   Every key of a sorted run shares the prefix of its first and last
   key, so the [prefix_at] column is taken just past it: long shared
   heads (a load-balanced ring, one volume's cached ranges) still
   resolve almost every step with one unboxed int compare. *)

let prefix_offset ids n =
  if n <= 1 then max_prefix_offset
  else min max_prefix_offset (common_prefix_len ids.(0) ids.(n - 1))

let lower_bound ids pfx ~n ~off key =
  if n = 0 then 0
  else begin
    (* All ids agree on their first [off] bytes; one head comparison
       settles any key that diverges from that prefix. *)
    let c = if off = 0 then 0 else compare_head key ids.(0) off in
    if c < 0 then 0
    else if c > 0 then n
    else begin
      let kp = prefix_at key off in
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        let mp = Array.unsafe_get pfx mid in
        let below =
          if mp < kp then true
          else if mp > kp then false
          else compare_from off (Array.unsafe_get ids mid) key < 0
        in
        if below then lo := mid + 1 else hi := mid
      done;
      !lo
    end
  end

(* {1 Hashing}

   Only the discriminating fields (Fig. 4 layout): the volume-id tail,
   the slot path and the block number.  Keys of one volume share the
   20-byte volume prefix, and version bytes are almost always zero, so
   hashing all 64 bytes (what the polymorphic [Hashtbl.hash] does)
   wastes most of its work.  Bytes 16..47 cover the volume tail, every
   slot level and the remainder hash head; bytes 52..59 the block. *)

let hash t =
  let mix h w =
    let h = Int64.logxor h w in
    let h = Int64.mul h 0xBF58476D1CE4E5B9L in
    Int64.logxor h (Int64.shift_right_logical h 29)
  in
  let h = mix 0x2545F4914F6CDD1DL (String.get_int64_be t 16) in
  let h = mix h (String.get_int64_be t 24) in
  let h = mix h (String.get_int64_be t 32) in
  let h = mix h (String.get_int64_be t 40) in
  let h = mix h (String.get_int64_be t 52) in
  Int64.to_int h land max_int

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = String.equal
  let hash = hash
end)

let zero = String.make size '\000'
let max_key = String.make size '\255'

let succ t =
  let b = Bytes.of_string t in
  let rec carry i =
    if i < 0 then () (* wrapped: all bytes were 0xff, result is all zero *)
    else begin
      let v = Char.code (Bytes.get b i) in
      if v = 0xff then begin
        Bytes.set b i '\000';
        carry (i - 1)
      end
      else Bytes.set b i (Char.chr (v + 1))
    end
  in
  carry (size - 1);
  Bytes.unsafe_to_string b

let pred t =
  let b = Bytes.of_string t in
  let rec borrow i =
    if i < 0 then () (* wrapped: all bytes were 0, result is all 0xff *)
    else begin
      let v = Char.code (Bytes.get b i) in
      if v = 0 then begin
        Bytes.set b i '\255';
        borrow (i - 1)
      end
      else Bytes.set b i (Char.chr (v - 1))
    end
  in
  borrow (size - 1);
  Bytes.unsafe_to_string b

let in_interval k ~lo ~hi =
  let c = compare lo hi in
  if c = 0 then true
  else if c < 0 then compare lo k < 0 && compare k hi <= 0
  else compare lo k < 0 || compare k hi <= 0

let random rng =
  let b = Bytes.create size in
  D2_util.Rng.bits rng b;
  Bytes.unsafe_to_string b

let to_hex t =
  let buf = Buffer.create (2 * size) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) t;
  Buffer.contents buf

let of_hex s =
  if String.length s <> 2 * size then invalid_arg "Key.of_hex: wrong length";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Key.of_hex: bad digit"
  in
  String.init size (fun i ->
      Char.chr ((digit s.[2 * i] * 16) + digit s.[(2 * i) + 1]))

let short_hex t = String.sub (to_hex t) 0 8

let pp fmt t = Format.pp_print_string fmt (short_hex t)
