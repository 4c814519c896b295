let bytes n s =
  if n < 0 || n > 64 then invalid_arg "Hashing.bytes: n out of range";
  let buf = Buffer.create 64 in
  let block = ref (Digest.string s) in
  while Buffer.length buf < n do
    Buffer.add_string buf !block;
    block := Digest.string !block
  done;
  Buffer.sub buf 0 n

let int64_of s =
  let d = bytes 8 s in
  let acc = ref 0L in
  String.iter (fun c -> acc := Int64.(logor (shift_left !acc 8) (of_int (Char.code c)))) d;
  !acc

let uniform_key s = Key.of_string (bytes 64 s)
