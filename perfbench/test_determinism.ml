(* The benchmark's own determinism check:

   - two mem_churn runs on one seed give identical per-layer counts and
     identical virtual-clock latency percentiles (traced worlds, so the
     per-layer counts come from the same instrumentation the traced run
     reports);
   - a second seed changes them, so the seed reaches the generator;
   - the tcp_* input streams are a pure function of the seed.

   Run with [dune build @perfbench/determinism].  Each world holds about
   a gigabyte, so this is not part of [dune runtest]. *)

open D2_perfbench

let seconds = 2.0
let failures = ref 0

let check label ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") label;
  if not ok then incr failures

(* Every count a traced mem_churn window produces, plus its full
   sorted latency samples. *)
let fingerprint ~seed =
  let r = Churn.run_traced_world ~seed ~seconds in
  let w = Option.get r.Churn.layers in
  let tags =
    List.fold_left
      (fun acc (_, (s : Traced.snap)) -> Array.map2 ( + ) acc s.s_ints)
      (Array.make Traced.n_ints 0) w.Layers.traced
  in
  let counts =
    [ w.ops; w.gets; w.puts; r.kills; r.joins; r.replicas_checked;
      r.replica_mismatches; r.under_replicated; r.tally.failed;
      r.tally.verify_errors; r.tally.bytes_moved ]
    @ Array.to_list tags
    @ List.concat_map
        (fun (c : Layers.client_counts) ->
          [ c.lookup_rpcs; c.failures; c.hits; c.misses; c.entries ])
        w.clients
    @ List.concat_map
        (fun (n : Layers.node_counts) ->
          [ n.requests; n.repair_sessions; n.repair_bytes; n.repair_frames;
            n.repair_copies; n.vmap_entries ])
        (List.sort compare w.nodes)
  in
  let lat =
    ( Common.Samples.sorted r.tally.get_lat,
      Common.Samples.sorted r.tally.put_lat )
  in
  (counts, lat)

let stream workload ~seed n =
  let i = Tcp.inputs workload ~seed in
  (Array.to_list i.Tcp.preload, List.init n (fun _ -> i.Tcp.next ()))

let () =
  let a = fingerprint ~seed:1 in
  let b = fingerprint ~seed:1 in
  let c = fingerprint ~seed:2 in
  check "mem_churn: same seed, identical per-layer counts" (fst a = fst b);
  check "mem_churn: same seed, identical virtual latencies" (snd a = snd b);
  check "mem_churn: another seed changes the counts" (fst a <> fst c);
  check "mem_churn: another seed changes the latencies" (snd a <> snd c);
  List.iter
    (fun w ->
      let name = Tcp.name w in
      let s1 = stream w ~seed:1 50_000 and s1' = stream w ~seed:1 50_000 in
      let s2 = stream w ~seed:2 50_000 in
      check (name ^ ": same seed, identical input stream") (s1 = s1');
      check (name ^ ": another seed, another input stream") (s1 <> s2))
    [ Tcp.Trace; Tcp.Durable ];
  if !failures > 0 then exit 1
