(* Shared pieces of the benchmark: clocks, percentiles, the
   version-stamped block payloads every workload verifies against,
   /proc and directory probes, and the result line. *)

module Key = D2_keyspace.Key
module Rng = D2_util.Rng

let now () = Unix.gettimeofday ()

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* {1 Samples} *)

(* Growable float vector: latency samples in seconds. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s
end

(* Nearest-rank percentile of a sorted array; 0 when empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let s = Array.of_list xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then 0.0
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* {1 Payloads}

   A block's bytes are a pure function of (slot, version, length): a
   seeded 8 KB template with the key's slot number and the write's
   version stamped over the first 16 bytes.  Every write of a key
   bumps its version, so a get is checked against the {e last acked}
   put byte for byte, and a stale replica reads as a mismatch.  The
   check blits the header into a per-length scratch copy of the
   template and compares with [String.equal], so verifying a get
   allocates nothing. *)
module Payload = struct
  type t = { template : Bytes.t; scratch : (int, Bytes.t) Hashtbl.t }

  let block = D2_net.Wire.max_payload

  let create ~seed =
    let rng = Rng.create (seed lxor 0x5eed) in
    let template = Bytes.init block (fun _ -> Char.chr (Rng.int rng 256)) in
    { template; scratch = Hashtbl.create 64 }

  let stamp b ~slot ~ver =
    let len = Bytes.length b in
    let hdr = Bytes.create 16 in
    Bytes.set_int64_le hdr 0 (Int64.of_int slot);
    Bytes.set_int64_le hdr 8 (Int64.of_int ver);
    Bytes.blit hdr 0 b 0 (min 16 len)

  let scratch t len =
    match Hashtbl.find_opt t.scratch len with
    | Some b -> b
    | None ->
        let b = Bytes.sub t.template 0 len in
        Hashtbl.replace t.scratch len b;
        b

  let clamp len = max 1 (min block len)

  let make t ~slot ~ver ~len =
    let len = clamp len in
    let b = Bytes.sub t.template 0 len in
    stamp b ~slot ~ver;
    Bytes.unsafe_to_string b

  let check t data ~slot ~ver ~len =
    String.length data = len
    &&
    let b = scratch t len in
    stamp b ~slot ~ver;
    String.equal data (Bytes.unsafe_to_string b)
end

(* Per-key expectation: what the last acked write stored.  [slot] is
   the key's stable index in the run, [ver] its last acked version,
   [live] false once an acked remove dropped it. *)
type expect = {
  slot : int;
  mutable ver : int;
  mutable len : int;
  mutable live : bool;
  mutable next_ver : int;
}

(* {1 Probes from outside the program} *)

(* Peak resident set of a process, MiB, from /proc/<pid>/status. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec loop () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
            else loop ()
      in
      let v = loop () in
      close_in ic;
      v

let self_hwm_mb () = vm_hwm_mb "self"

(* Bytes of regular files under [dir], recursively. *)
let rec dir_bytes dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      Array.fold_left
        (fun acc name ->
          let p = Filename.concat dir name in
          match Unix.lstat p with
          | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
          | { Unix.st_kind = Unix.S_DIR; _ } -> acc + dir_bytes p
          | _ -> acc
          | exception Unix.Unix_error _ -> acc)
        0 names

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Scratch state of a run (stores, span dumps) lives under the
   checkout, never outside it. *)
let run_dir = Filename.concat "perfbench" "_run"

(* {1 Reporting} *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ = unit_ }

(* Human-readable line: every figure with its unit and its base. *)
let show ?base m =
  match base with
  | Some b ->
      Printf.printf "  %-34s %14.6g %-6s (%s)\n" m.name m.value m.unit_ b
  | None -> Printf.printf "  %-34s %14.6g %s\n" m.name m.value m.unit_

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0.0"

let json_string s = Printf.sprintf "%S" s

(* The result line: the last line of stdout. *)
let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_float m.value) (json_string m.unit_))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let ratio_f a b = if b = 0.0 then 0.0 else a /. b
