(* Sorted parallel int arrays: nodes.(i) strictly increasing,
   counts.(i) >= 1.  The canonical form (no zero counters, sorted,
   deduplicated) makes structural equality and the codec's byte
   equality coincide with vector equality. *)

type t = { nodes : int array; counts : int array }

let empty = { nodes = [||]; counts = [||] }
let is_empty t = Array.length t.nodes = 0
let cardinal t = Array.length t.nodes

let rec find_node nodes node lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let v = nodes.(mid) in
    if v = node then mid
    else if v < node then find_node nodes node (mid + 1) hi
    else find_node nodes node lo mid

let get t node =
  let i = find_node t.nodes node 0 (Array.length t.nodes) in
  if i < 0 then 0 else t.counts.(i)

let bump t ~node =
  if node < 0 then invalid_arg "Version_vector.bump: negative node";
  let n = Array.length t.nodes in
  let i = find_node t.nodes node 0 n in
  if i >= 0 then begin
    let counts = Array.copy t.counts in
    counts.(i) <- counts.(i) + 1;
    { nodes = t.nodes; counts }
  end
  else begin
    let nodes = Array.make (n + 1) 0 and counts = Array.make (n + 1) 0 in
    let j = ref 0 in
    while !j < n && t.nodes.(!j) < node do
      nodes.(!j) <- t.nodes.(!j);
      counts.(!j) <- t.counts.(!j);
      incr j
    done;
    nodes.(!j) <- node;
    counts.(!j) <- 1;
    for k = !j to n - 1 do
      nodes.(k + 1) <- t.nodes.(k);
      counts.(k + 1) <- t.counts.(k)
    done;
    { nodes; counts }
  end

(* One linear merge pass; the merged size is counted first so the
   result allocates exactly once. *)
let merge a b =
  if is_empty a then b
  else if is_empty b then a
  else begin
    let na = Array.length a.nodes and nb = Array.length b.nodes in
    let n = ref 0 in
    let i = ref 0 and j = ref 0 in
    while !i < na || !j < nb do
      (if !i >= na then incr j
       else if !j >= nb then incr i
       else
         let c = compare a.nodes.(!i) b.nodes.(!j) in
         if c = 0 then begin
           incr i;
           incr j
         end
         else if c < 0 then incr i
         else incr j);
      incr n
    done;
    let nodes = Array.make !n 0 and counts = Array.make !n 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na || !j < nb do
      (if !i >= na then begin
         nodes.(!k) <- b.nodes.(!j);
         counts.(!k) <- b.counts.(!j);
         incr j
       end
       else if !j >= nb then begin
         nodes.(!k) <- a.nodes.(!i);
         counts.(!k) <- a.counts.(!i);
         incr i
       end
       else
         let c = compare a.nodes.(!i) b.nodes.(!j) in
         if c = 0 then begin
           nodes.(!k) <- a.nodes.(!i);
           counts.(!k) <- max a.counts.(!i) b.counts.(!j);
           incr i;
           incr j
         end
         else if c < 0 then begin
           nodes.(!k) <- a.nodes.(!i);
           counts.(!k) <- a.counts.(!i);
           incr i
         end
         else begin
           nodes.(!k) <- b.nodes.(!j);
           counts.(!k) <- b.counts.(!j);
           incr j
         end);
      incr k
    done;
    { nodes; counts }
  end

type order = Equal | Dominates | Dominated | Concurrent

let compare_vv a b =
  let na = Array.length a.nodes and nb = Array.length b.nodes in
  let a_extra = ref false and b_extra = ref false in
  let i = ref 0 and j = ref 0 in
  while (not (!a_extra && !b_extra)) && (!i < na || !j < nb) do
    if !i >= na then begin
      b_extra := true;
      incr j
    end
    else if !j >= nb then begin
      a_extra := true;
      incr i
    end
    else
      let c = compare a.nodes.(!i) b.nodes.(!j) in
      if c = 0 then begin
        let d = compare a.counts.(!i) b.counts.(!j) in
        if d > 0 then a_extra := true else if d < 0 then b_extra := true;
        incr i;
        incr j
      end
      else if c < 0 then begin
        a_extra := true;
        incr i
      end
      else begin
        b_extra := true;
        incr j
      end
  done;
  match (!a_extra, !b_extra) with
  | false, false -> Equal
  | true, false -> Dominates
  | false, true -> Dominated
  | true, true -> Concurrent

let dominates a b =
  match compare_vv a b with Equal | Dominates -> true | _ -> false

let sum t = Array.fold_left ( + ) 0 t.counts

(* Total order consistent with dominance: strict dominance implies a
   strictly larger counter sum, so ordering by sum (ties broken by the
   entry arrays, which differ whenever the vectors do) never inverts
   the partial order. *)
let winner a b =
  match compare_vv a b with
  | Equal | Dominates -> `Left
  | Dominated -> `Right
  | Concurrent ->
      let c = compare (sum a) (sum b) in
      let c =
        if c <> 0 then c
        else
          let c = compare a.nodes b.nodes in
          if c <> 0 then c else compare a.counts b.counts
      in
      if c >= 0 then `Left else `Right

let max_entries = 64
let u32_max = 0xffff_ffff

let encoded_size t = 1 + (8 * Array.length t.nodes)

(* A top-level loop, not [Array.for_all]: it is checked on every
   stamp and every digest CRC, and allocates no closure. *)
let rec fits_u32 nodes counts i =
  i = Array.length nodes
  || (nodes.(i) <= u32_max && counts.(i) <= u32_max
     && fits_u32 nodes counts (i + 1))

let encodable t =
  Array.length t.nodes <= max_entries && fits_u32 t.nodes t.counts 0

let encode_into t buf ~off =
  let n = Array.length t.nodes in
  if not (encodable t) then
    invalid_arg "Version_vector.encode_into: not encodable";
  if off < 0 || off + encoded_size t > Bytes.length buf then
    invalid_arg "Version_vector.encode_into: buffer too small";
  Bytes.set_uint8 buf off n;
  for i = 0 to n - 1 do
    Bytes.set_int32_be buf (off + 1 + (8 * i)) (Int32.of_int t.nodes.(i));
    Bytes.set_int32_be buf (off + 5 + (8 * i)) (Int32.of_int t.counts.(i))
  done;
  encoded_size t

let decode buf ~off ~stop =
  if off < 0 || off >= stop || stop > Bytes.length buf then None
  else
    let n = Bytes.get_uint8 buf off in
    if n > max_entries || off + 1 + (8 * n) > stop then None
    else begin
      let nodes = Array.make n 0 and counts = Array.make n 0 in
      let ok = ref true in
      for i = 0 to n - 1 do
        let node =
          Int32.to_int (Bytes.get_int32_be buf (off + 1 + (8 * i))) land u32_max
        in
        let count =
          Int32.to_int (Bytes.get_int32_be buf (off + 5 + (8 * i))) land u32_max
        in
        nodes.(i) <- node;
        counts.(i) <- count;
        if count < 1 then ok := false;
        if i > 0 && nodes.(i - 1) >= node then ok := false
      done;
      if !ok then Some ({ nodes; counts }, 1 + (8 * n)) else None
    end

let to_string t =
  let b = Buffer.create 32 in
  Buffer.add_char b '{';
  Array.iteri
    (fun i n ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "%d:%d" n t.counts.(i)))
    t.nodes;
  Buffer.add_char b '}';
  Buffer.contents b

let pp fmt t = Format.pp_print_string fmt (to_string t)
