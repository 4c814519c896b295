(* Unit and property tests for the d2_util foundation: RNG, zipf,
   heap, statistics, and table rendering. *)

module Rng = D2_util.Rng
module Zipf = D2_util.Zipf
module Heap = D2_util.Heap
module Stats = D2_util.Stats
module Report = D2_util.Report

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let c1 = Rng.int64 child in
  (* Re-deriving from the same seed must give the same child stream. *)
  let parent' = Rng.create 7 in
  let child' = Rng.split parent' in
  Alcotest.(check int64) "split deterministic" c1 (Rng.int64 child')

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "Rng.int out of bounds"
  done

let test_rng_int_invalid () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.fail "Rng.float out of bounds"
  done

let test_rng_float_mean () =
  let rng = Rng.create 5 in
  let acc = ref 0.0 in
  let n = 50_000 in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng 1.0
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_rng_bits_fills () =
  let rng = Rng.create 6 in
  let b = Bytes.make 13 '\000' in
  Rng.bits rng b;
  (* 13 zero bytes after a random fill is astronomically unlikely. *)
  Alcotest.(check bool) "filled" true (Bytes.exists (fun c -> c <> '\000') b)

let test_rng_exponential_mean () =
  let rng = Rng.create 8 in
  let acc = ref 0.0 in
  let n = 50_000 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng ~mean:3.0
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 3.0" true (abs_float (mean -. 3.0) < 0.1)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 9 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_normal_moments () =
  let rng = Rng.create 10 in
  let stats = Stats.Online.create () in
  for _ = 1 to 50_000 do
    Stats.Online.add stats (Rng.normal rng ~mean:5.0 ~stddev:2.0)
  done;
  Alcotest.(check bool) "mean" true (abs_float (Stats.Online.mean stats -. 5.0) < 0.05);
  Alcotest.(check bool) "stddev" true (abs_float (Stats.Online.stddev stats -. 2.0) < 0.05)

let test_zipf_bounds () =
  let z = Zipf.create ~n:100 ~s:0.9 in
  let rng = Rng.create 11 in
  for _ = 1 to 10_000 do
    let r = Zipf.sample z rng in
    if r < 0 || r >= 100 then Alcotest.fail "zipf rank out of range"
  done

let test_zipf_skew () =
  let z = Zipf.create ~n:1000 ~s:1.0 in
  let rng = Rng.create 12 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 100_000 do
    let r = Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 0 most popular" true (counts.(0) > counts.(10));
  Alcotest.(check bool) "rank 0 ~ 13%" true
    (abs_float ((float_of_int counts.(0) /. 100_000.0) -. Zipf.prob z 0) < 0.01)

let test_zipf_prob_sums () =
  let z = Zipf.create ~n:50 ~s:0.7 in
  let total = ref 0.0 in
  for i = 0 to 49 do
    total := !total +. Zipf.prob z i
  done;
  Alcotest.(check bool) "probabilities sum to 1" true (abs_float (!total -. 1.0) < 1e-9)

let test_zipf_uniform_when_s0 () =
  let z = Zipf.create ~n:10 ~s:0.0 in
  for i = 0 to 9 do
    Alcotest.(check bool) "uniform mass" true (abs_float (Zipf.prob z i -. 0.1) < 1e-9)
  done

(* Pearson chi-square statistic of [draws] alias samples against the
   sampler's analytic masses, with the per-rank counts. *)
let chi_square z ~draws ~seed =
  let n = Zipf.n z in
  let rng = Rng.create seed in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  let stat = ref 0.0 in
  for i = 0 to n - 1 do
    let expected = Zipf.prob z i *. float_of_int draws in
    let d = float_of_int counts.(i) -. expected in
    stat := !stat +. (d *. d /. expected)
  done;
  (!stat, counts)

(* The alias sampler must draw from the exact Zipf distribution.
   Chi-square against the analytic masses has n-1 degrees of freedom:
   mean n-1, stddev sqrt(2(n-1)), so a bound of n + 8*sqrt(2n) leaves the false-failure probability negligible
   while still catching a swapped alias/cut entry (which shifts whole
   percent of mass and sends the statistic into the thousands). *)
let prop_zipf_alias_chi_square =
  QCheck.Test.make ~name:"alias sampler passes chi-square vs analytic masses"
    ~count:20
    QCheck.(triple (int_range 2 64) (float_range 0.0 1.2) (int_range 0 10_000))
    (fun (n, s, seed) ->
      let z = Zipf.create ~n ~s in
      let draws = 20_000 in
      let stat, _ = chi_square z ~draws ~seed in
      let bound = float_of_int n +. (8.0 *. sqrt (2.0 *. float_of_int n)) in
      stat < bound)

(* Per-rank frequencies of the alias sampler against the exact masses
   [Zipf.prob]: every rank's empirical frequency must lie within normal
   sampling noise (a few multiples of the binomial stddev). *)
let test_zipf_alias_matches_reference () =
  let z = Zipf.create ~n:40 ~s:0.95 in
  let draws = 200_000 in
  let _, counts = chi_square z ~draws ~seed:1234 in
  for i = 0 to 39 do
    let f = float_of_int counts.(i) /. float_of_int draws in
    let p = Zipf.prob z i in
    let sigma = sqrt (p *. (1.0 -. p) /. float_of_int draws) in
    if abs_float (f -. p) > (8.0 *. sigma) +. 1e-4 then
      Alcotest.failf "rank %d: alias %.5f vs exact %.5f" i f p
  done

let test_heap_ordering () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 5; 9; 2; 6 ];
  let drained = ref [] in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some x ->
        drained := x :: !drained;
        drain ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted output" [ 9; 6; 5; 5; 4; 2; 1; 1 ] !drained

let test_heap_empty () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "peek none" None (Heap.peek h);
  Alcotest.(check (option int)) "pop none" None (Heap.pop h)

let test_heap_peek_stable () =
  let h = Heap.create ~cmp:compare in
  Heap.push h 3;
  Heap.push h 1;
  Alcotest.(check (option int)) "peek min" (Some 1) (Heap.peek h);
  Alcotest.(check int) "peek does not remove" 2 (Heap.length h)

let test_heap_to_sorted_list () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 3; 1; 2 ];
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Heap.to_sorted_list h);
  Alcotest.(check int) "non-destructive" 3 (Heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      Heap.to_sorted_list h = List.sort compare xs)

let test_stats_online_basic () =
  let s = Stats.Online.create () in
  List.iter (Stats.Online.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.Online.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.Online.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.Online.min s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.Online.max s);
  Alcotest.(check (float 1e-9)) "sum" 10.0 (Stats.Online.sum s);
  Alcotest.(check (float 1e-9)) "variance" 1.25 (Stats.Online.variance s)

let test_stats_empty () =
  let s = Stats.Online.create () in
  Alcotest.(check (float 1e-9)) "mean of empty" 0.0 (Stats.Online.mean s);
  Alcotest.(check (float 1e-9)) "variance of empty" 0.0 (Stats.Online.variance s)

let test_stats_percentiles () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.median xs);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p25" 2.0 (Stats.percentile xs 25.0)

let test_stats_geometric_mean () =
  Alcotest.(check (float 1e-9)) "gm of 2,8" 4.0 (Stats.geometric_mean [| 2.0; 8.0 |]);
  Alcotest.(check (float 1e-9)) "gm of 1s" 1.0 (Stats.geometric_mean [| 1.0; 1.0; 1.0 |])

let test_stats_normalized_stddev () =
  Alcotest.(check (float 1e-9)) "balanced" 0.0
    (Stats.normalized_stddev [| 5.0; 5.0; 5.0 |]);
  let v = Stats.normalized_stddev [| 0.0; 10.0 |] in
  Alcotest.(check (float 1e-9)) "two-point" 1.0 v

let prop_online_matches_batch =
  QCheck.Test.make ~name:"online mean/stddev match batch" ~count:100
    QCheck.(list_of_size Gen.(int_range 2 50) (float_range (-100.) 100.))
    (fun xs ->
      let s = Stats.Online.create () in
      List.iter (Stats.Online.add s) xs;
      let arr = Array.of_list xs in
      abs_float (Stats.Online.mean s -. Stats.mean arr) < 1e-6
      && abs_float (Stats.Online.stddev s -. Stats.stddev arr) < 1e-6)

module Vec = D2_util.Vec

let test_vec_push_get () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 49 (Vec.get v 7);
  Vec.set v 7 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 7)

let test_vec_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of range")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec.set: index out of range")
    (fun () -> Vec.set v (-1) 0)

let test_vec_to_array_iter_fold () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 3; 1; 2 ];
  Alcotest.(check (array int)) "to_array" [| 3; 1; 2 |] (Vec.to_array v);
  let acc = ref [] in
  Vec.iter (fun x -> acc := x :: !acc) v;
  Alcotest.(check (list int)) "iter order" [ 3; 1; 2 ] (List.rev !acc);
  Alcotest.(check int) "fold" 6 (Vec.fold_left ( + ) 0 v)

let test_vec_sort_clear () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 3; 1; 2 ];
  Vec.sort ~cmp:compare v;
  Alcotest.(check (array int)) "sorted" [| 1; 2; 3 |] (Vec.to_array v);
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v);
  Vec.push v 9;
  Alcotest.(check int) "usable after clear" 9 (Vec.get v 0)

let prop_vec_matches_list =
  QCheck.Test.make ~name:"vec push/to_array = list" ~count:200 QCheck.(list int)
    (fun xs ->
      let v = Vec.create () in
      List.iter (Vec.push v) xs;
      Array.to_list (Vec.to_array v) = xs)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

let test_report_renders () =
  let r = Report.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Report.add_row r [ "1"; "2" ];
  Report.add_row r [ "333" ];
  let s = Report.render r in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 7 = "== demo");
  (* Padded short row must still have both columns rendered. *)
  Alcotest.(check bool) "contains 333" true (contains_substring s "333")

let test_report_formats () =
  Alcotest.(check string) "float" "1.500" (Report.fmt_float 1.5);
  Alcotest.(check string) "float decimals" "1.50" (Report.fmt_float ~decimals:2 1.5);
  Alcotest.(check string) "sci" "3.10e-05" (Report.fmt_sci 3.1e-5);
  Alcotest.(check string) "pct" "12.5%" (Report.fmt_pct 0.125)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "d2_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid bound" `Quick test_rng_int_invalid;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "bits fills buffer" `Quick test_rng_bits_fills;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
        ] );
      ( "zipf",
        Alcotest.test_case "bounds" `Quick test_zipf_bounds
        :: Alcotest.test_case "skew" `Quick test_zipf_skew
        :: Alcotest.test_case "prob sums to 1" `Quick test_zipf_prob_sums
        :: Alcotest.test_case "uniform when s=0" `Quick test_zipf_uniform_when_s0
        :: Alcotest.test_case "alias = reference frequencies" `Quick
             test_zipf_alias_matches_reference
        :: qcheck [ prop_zipf_alias_chi_square ] );
      ( "heap",
        Alcotest.test_case "ordering" `Quick test_heap_ordering
        :: Alcotest.test_case "empty" `Quick test_heap_empty
        :: Alcotest.test_case "peek stable" `Quick test_heap_peek_stable
        :: Alcotest.test_case "to_sorted_list" `Quick test_heap_to_sorted_list
        :: qcheck [ prop_heap_sorts ] );
      ( "stats",
        Alcotest.test_case "online basic" `Quick test_stats_online_basic
        :: Alcotest.test_case "empty" `Quick test_stats_empty
        :: Alcotest.test_case "percentiles" `Quick test_stats_percentiles
        :: Alcotest.test_case "geometric mean" `Quick test_stats_geometric_mean
        :: Alcotest.test_case "normalized stddev" `Quick test_stats_normalized_stddev
        :: qcheck [ prop_online_matches_batch ] );
      ( "vec",
        Alcotest.test_case "push/get/set" `Quick test_vec_push_get
        :: Alcotest.test_case "bounds" `Quick test_vec_bounds
        :: Alcotest.test_case "to_array/iter/fold" `Quick test_vec_to_array_iter_fold
        :: Alcotest.test_case "sort/clear" `Quick test_vec_sort_clear
        :: qcheck [ prop_vec_matches_list ] );
      ( "report",
        [
          Alcotest.test_case "renders" `Quick test_report_renders;
          Alcotest.test_case "formats" `Quick test_report_formats;
        ] );
    ]
