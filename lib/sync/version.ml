type t = { stamp : int; node : int }

let zero = { stamp = 0; node = 0 }
let is_zero t = t.stamp = 0

let compare a b =
  let c = Int.compare a.stamp b.stamp in
  if c <> 0 then c else Int.compare a.node b.node

let equal a b = a.stamp = b.stamp && a.node = b.node
let u32_max = 0xffff_ffff

let next t ~node ~now =
  if node < 0 || node > u32_max then
    invalid_arg "Version.next: node outside u32";
  { stamp = max (Float.to_int (now *. 1e6)) (t.stamp + 1); node }

let size = 12

let encode_into t buf ~off =
  Bytes.set_int64_be buf off (Int64.of_int t.stamp);
  Bytes.set_int32_be buf (off + 8) (Int32.of_int t.node)

let decode buf ~off =
  let stamp = Bytes.get_int64_be buf off in
  let node = Int32.to_int (Bytes.get_int32_be buf (off + 8)) land u32_max in
  if stamp < 0L || stamp > Int64.of_int max_int then None
  else if stamp = 0L && node <> 0 then None
  else Some { stamp = Int64.to_int stamp; node }
