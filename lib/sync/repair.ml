module Key = D2_keyspace.Key
module Vv = Version_vector

type probe = { prefix : int; bits : int }

let root = { prefix = 0; bits = 0 }
(* Bucket size (both sides combined) below which exchanging the key
   list beats another digest round. *)
let leaf_count = 32

type next = Digest of probe | Keys of probe

let refine probe ~local ~remote =
  if
    Array.length local <> Digest.fanout || Array.length remote <> Digest.fanout
  then invalid_arg "Repair.refine: digest arrays must have fanout entries";
  let acc = ref [] in
  for i = Digest.fanout - 1 downto 0 do
    let lsum, lcount = local.(i) and rsum, rcount = remote.(i) in
    if lsum <> rsum || lcount <> rcount then begin
      let child =
        {
          prefix = (probe.prefix lsl Digest.fanout_bits) lor i;
          bits = probe.bits + Digest.fanout_bits;
        }
      in
      (* Another digest round costs one RPC and saves shipping the
         bucket's entries; worth it only while the bucket is big and
         there are hash bits left to split on. *)
      if
        child.bits + Digest.fanout_bits <= Digest.max_bits
        && lcount + rcount > leaf_count
      then acc := Digest child :: !acc
      else acc := Keys child :: !acc
    end
  done;
  !acc

type transfers = {
  pull : Key.t list;
  push : (Key.t * Vv.t * bool) list;
}

let diff ~local ~remote =
  let pull = ref [] and push = ref [] in
  let rec go l r =
    match (l, r) with
    | [], [] -> ()
    | (k, vv, del) :: lt, [] ->
        push := (k, vv, del) :: !push;
        go lt []
    | [], (k, _, _) :: rt ->
        pull := k :: !pull;
        go [] rt
    | ((lk, lvv, ldel) :: lt as l), ((rk, rvv, _) :: rt as r) -> (
        let c = Key.compare lk rk in
        if c < 0 then begin
          push := (lk, lvv, ldel) :: !push;
          go lt r
        end
        else if c > 0 then begin
          pull := rk :: !pull;
          go l rt
        end
        else begin
          (match Vv.compare_vv lvv rvv with
          | Vv.Equal -> ()
          | Vv.Dominates -> push := (lk, lvv, ldel) :: !push
          | Vv.Dominated -> pull := lk :: !pull
          | Vv.Concurrent ->
              (* Ship both ways: each side applies the deterministic
                 winner, so one exchange converges the pair. *)
              push := (lk, lvv, ldel) :: !push;
              pull := lk :: !pull);
          go lt rt
        end)
  in
  go local remote;
  { pull = List.rev !pull; push = List.rev !push }
