(* Reflected CRC-32C, polynomial 0x82F63B78.  The digest loop lives in
   the C stub (hardware crc32 instruction when the CPU has SSE4.2,
   slicing-by-8 tables otherwise): an 8 KB block costs ~30 us
   byte-at-a-time in OCaml — dominating the put path it protects —
   and well under 1 us in the stub. *)

external crc32c_stub : int -> Bytes.t -> int -> int -> int
  = "d2_segstore_crc32c"
[@@noalloc]

let mask = 0xFFFFFFFF
let finish c = lnot c land mask

let string ?(crc = 0) s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32c.string";
  finish (crc32c_stub (finish crc) (Bytes.unsafe_of_string s) pos len)

let bytes ?(crc = 0) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32c.bytes";
  finish (crc32c_stub (finish crc) b pos len)
