type t = {
  n : int;
  cdf : float array;
  (* Walker alias table: bucket [i] returns [i] when the uniform
     fraction falls below [cut.(i)], otherwise [alias.(i)].  Built once
     in O(n); each sample is O(1) — one table row — which matters
     because the fleet generators sample on every op. *)
  cut : float array;
  alias : int array;
}

let create ~n ~s =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if s < 0.0 then invalid_arg "Zipf.create: s must be non-negative";
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. (1.0 /. (float_of_int (i + 1) ** s));
    cdf.(i) <- !total
  done;
  let z = !total in
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. z
  done;
  (* Vose's stable alias construction over the normalized masses scaled
     by n: every bucket ends up holding exactly 1/n of total mass,
     split between rank i (below the cut) and one alias rank. *)
  let cut = Array.make n 1.0 in
  let alias = Array.init n (fun i -> i) in
  let scaled =
    Array.init n (fun i ->
        let p = if i = 0 then cdf.(0) else cdf.(i) -. cdf.(i - 1) in
        p *. float_of_int n)
  in
  let small = Array.make n 0 and large = Array.make n 0 in
  let ns = ref 0 and nl = ref 0 in
  for i = 0 to n - 1 do
    if scaled.(i) < 1.0 then begin
      small.(!ns) <- i;
      incr ns
    end
    else begin
      large.(!nl) <- i;
      incr nl
    end
  done;
  while !ns > 0 && !nl > 0 do
    decr ns;
    decr nl;
    let s_i = small.(!ns) and l_i = large.(!nl) in
    cut.(s_i) <- scaled.(s_i);
    alias.(s_i) <- l_i;
    scaled.(l_i) <- scaled.(l_i) -. (1.0 -. scaled.(s_i));
    if scaled.(l_i) < 1.0 then begin
      small.(!ns) <- l_i;
      incr ns
    end
    else incr nl
  done;
  (* Leftovers are within rounding of exactly 1.0: they keep cut = 1
     (never alias), which is the correct limit. *)
  { n; cdf; cut; alias }

let n t = t.n

(* One uniform draw feeds both the bucket index (integer part) and the
   alias coin (fractional part): O(1) work per sample. *)
let sample t rng =
  let u = Rng.float rng (float_of_int t.n) in
  let i = int_of_float u in
  let i = if i >= t.n then t.n - 1 else i in
  if u -. float_of_int i < Array.unsafe_get t.cut i then i
  else Array.unsafe_get t.alias i

let prob t i =
  if i < 0 || i >= t.n then invalid_arg "Zipf.prob: rank out of range";
  if i = 0 then t.cdf.(0) else t.cdf.(i) -. t.cdf.(i - 1)
