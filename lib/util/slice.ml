type t = { buf : Bytes.t; off : int; len : int }

let v buf ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Slice.v: window outside buffer";
  { buf; off; len }

let of_string s =
  { buf = Bytes.unsafe_of_string s; off = 0; len = String.length s }

let to_string s = Bytes.sub_string s.buf s.off s.len
