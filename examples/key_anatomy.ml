(* Key anatomy: how D2 turns paths into ring positions (paper §4.2,
   Fig. 4) and why that preserves locality while hashing destroys it.

   Run with: dune exec examples/key_anatomy.exe *)

module Key = D2_keyspace.Key
module Encoding = D2_keyspace.Encoding
module Keygen = D2_keyspace.Keygen
module Keymap = D2_trace.Keymap

let show_key label key =
  let hex = Key.to_hex key in
  (* Fig. 4 layout: 20B volume | 12x2B slots | 8B remainder hash |
     8B block | 4B version. *)
  Printf.printf "  %-28s %s %s %s %s %s\n" label
    (String.sub hex 0 40)      (* volume id *)
    (String.sub hex 40 48)     (* slot path *)
    (String.sub hex 88 16)     (* remainder hash *)
    (String.sub hex 104 16)    (* block number *)
    (String.sub hex 120 8)     (* version *)

let () =
  print_endline "Fig. 4 key layout: volume(20B) | slots(12x2B) | rem-hash(8B) | block(8B) | version(4B)";
  print_endline "";
  print_endline "D2 keys for a small tree (slots assigned in creation order):";
  let km = Keymap.create Keymap.D2 ~volume:"demo" in
  List.iter
    (fun (path, block) -> show_key (Printf.sprintf "%s[%d]" path block)
        (Keymap.key_of km ~path ~block))
    [
      ("/home/alice/a.txt", 0);
      ("/home/alice/a.txt", 1);
      ("/home/alice/b.txt", 0);
      ("/home/bob/c.txt", 0);
    ];
  print_endline "";
  print_endline "  -> a.txt's blocks are adjacent; b.txt is the next slot over;";
  print_endline "     bob's home is a different level-2 slot. One directory = one ring arc.";
  print_endline "";
  print_endline "The same blocks under traditional (content-hash) keys:";
  List.iter
    (fun (path, block) ->
      let key =
        Keygen.traditional_block ~volume:"demo" ~path ~block:(Int64.of_int block)
          ~version:0l
      in
      Printf.printf "  %-28s %s...\n" (Printf.sprintf "%s[%d]" path block)
        (String.sub (Key.to_hex key) 0 24))
    [ ("/home/alice/a.txt", 0); ("/home/alice/a.txt", 1); ("/home/alice/b.txt", 0) ];
  print_endline "";
  print_endline "  -> unrelated ring positions: every block lands on a different node.";
  print_endline "";
  print_endline "Deep paths (>12 levels) hash the remainder (under 1% of files, paper §4.2):";
  let deep = "/" ^ String.concat "/" (List.init 15 (fun i -> Printf.sprintf "d%d" i)) ^ "/f" in
  show_key "15-level path" (Keymap.key_of km ~path:deep ~block:0);
  let fields = Encoding.decode (Keymap.key_of km ~path:deep ~block:0) in
  Printf.printf "  decoded: %d positional slots kept, remainder hash %Lx\n"
    (Array.length fields.Encoding.slots) fields.Encoding.remainder_hash
