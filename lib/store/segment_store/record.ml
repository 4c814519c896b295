module Key = D2_keyspace.Key

let kind_put = 1
let kind_remove = 2
let header_len = 4 + 4 + 1 + Key.size
let max_data = 1 lsl 20
let encoded_len ~data_len = header_len + data_len

let put_u32 b off v =
  Bytes.unsafe_set b off (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))

let get_u32 b off =
  Char.code (Bytes.unsafe_get b off)
  lor (Char.code (Bytes.unsafe_get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (off + 3)) lsl 24)

let encode_into buf ~off ~kind ~key ~(data : D2_util.Slice.t) =
  let n = data.len in
  if n > max_data then invalid_arg "Record.encode_into: payload too large";
  put_u32 buf off n;
  Bytes.unsafe_set buf (off + 8) (Char.unsafe_chr kind);
  Bytes.blit_string (Key.to_string key) 0 buf (off + 9) Key.size;
  Bytes.blit data.buf data.off buf (off + header_len) n;
  let crc = Crc32c.bytes buf ~pos:(off + 8) ~len:(1 + Key.size + n) in
  put_u32 buf (off + 4) crc;
  header_len + n

type decoded = {
  d_kind : int;
  d_key : Key.t;
  d_data_off : int;
  d_data_len : int;
  d_total : int;
}

let decode buf ~off ~avail =
  if avail < header_len then `Bad
  else
    let n = get_u32 buf off in
    if n < 0 || n > max_data then `Bad
    else if avail < header_len + n then `Bad
    else
      let crc = get_u32 buf (off + 4) in
      if Crc32c.bytes buf ~pos:(off + 8) ~len:(1 + Key.size + n) <> crc then
        `Bad
      else
        let kind = Char.code (Bytes.unsafe_get buf (off + 8)) in
        if kind <> kind_put && kind <> kind_remove then `Bad
        else
          `Record
            {
              d_kind = kind;
              d_key = Key.of_string (Bytes.sub_string buf (off + 9) Key.size);
              d_data_off = off + header_len;
              d_data_len = n;
              d_total = header_len + n;
            }
