(* {1 Cells}

   Every event is a {e cell}: an unboxed (time, seq, tag, payload,
   sink) row in a struct-of-arrays pool, filed into a 3-level
   hierarchical timer wheel (256 slots per level, [granularity]
   seconds per tick).  The block store and the fleet post hundreds of
   thousands of uniform timers per simulation — expiries,
   pointer-stabilization fetches, bandwidth-paced arrivals — so a
   posted cell costs no allocation: it names a registered sink that
   receives [(tag, payload)].  A scheduled closure is a cell with sink
   -1 whose closure sits in the [c_fn] column.  Cells beyond the
   wheel's 2^24-tick horizon go straight to the ready-heap, so range
   never limits correctness.

   Determinism: every cell draws its [seq] from one counter, and the
   ready-heap orders by exact (time, seq).  The wheel only buckets by
   coarse tick; {!run} surfaces every wheel cell up to the ready top's
   tick before firing it, so events fire in exact (time,
   scheduling-order) order whichever way they were filed. *)

type sink = int

type t = {
  mutable clock : float;
  mutable next_seq : int;
  granularity : float;
  mutable cursor : int;  (* last tick fully surfaced into [ready] *)
  (* cell pool columns; [c_next] doubles as slot chain and free list *)
  mutable c_time : float array;
  mutable c_seq : int array;
  mutable c_tag : int array;
  mutable c_payload : int array;
  mutable c_sink : int array;  (* -1 for a scheduled closure *)
  mutable c_fn : (unit -> unit) array;  (* [ignore] unless a live closure *)
  mutable c_next : int array;
  mutable c_tick : int array;
  mutable pool_used : int;  (* high-water mark of the pool *)
  mutable free_cell : int;  (* free-list head, -1 when empty *)
  (* wheel levels: head cell of each slot's chain, -1 when empty *)
  l0 : int array;
  l1 : int array;
  l2 : int array;
  mutable n0 : int;
  mutable n1 : int;
  mutable n2 : int;
  (* cells whose tick has been reached, or lies beyond the horizon, as
     a binary min-heap of pool ids ordered by (time, seq) *)
  mutable ready : int array;
  mutable nready : int;
  mutable sinks : (int -> int -> unit) array;
  mutable nsinks : int;
}

let no_sink : int -> int -> unit = fun _ _ -> ()

let create ?(granularity = 1.0) () =
  if granularity <= 0.0 then
    invalid_arg "Engine.create: granularity must be positive";
  {
    clock = 0.0;
    next_seq = 0;
    granularity;
    cursor = 0;
    c_time = [||];
    c_seq = [||];
    c_tag = [||];
    c_payload = [||];
    c_sink = [||];
    c_fn = [||];
    c_next = [||];
    c_tick = [||];
    pool_used = 0;
    free_cell = -1;
    l0 = Array.make 256 (-1);
    l1 = Array.make 256 (-1);
    l2 = Array.make 256 (-1);
    n0 = 0;
    n1 = 0;
    n2 = 0;
    ready = [||];
    nready = 0;
    sinks = Array.make 4 no_sink;
    nsinks = 0;
  }

let now t = t.clock

(* {1 Cell pool and ready-heap plumbing} *)

let register_sink t fn =
  if t.nsinks = Array.length t.sinks then begin
    let ns = Array.make (2 * t.nsinks) no_sink in
    Array.blit t.sinks 0 ns 0 t.nsinks;
    t.sinks <- ns
  end;
  let id = t.nsinks in
  t.sinks.(id) <- fn;
  t.nsinks <- id + 1;
  id

let grow_pool t =
  let cap = Array.length t.c_time in
  let ncap = max 64 (2 * cap) in
  let grow a fill = let n = Array.make ncap fill in Array.blit a 0 n 0 cap; n in
  t.c_time <- grow t.c_time 0.0;
  t.c_seq <- grow t.c_seq 0;
  t.c_tag <- grow t.c_tag 0;
  t.c_payload <- grow t.c_payload 0;
  t.c_sink <- grow t.c_sink 0;
  t.c_fn <- grow t.c_fn ignore;
  t.c_next <- grow t.c_next 0;
  t.c_tick <- grow t.c_tick 0

let alloc_cell t =
  if t.free_cell >= 0 then begin
    let c = t.free_cell in
    t.free_cell <- t.c_next.(c);
    c
  end
  else begin
    if t.pool_used = Array.length t.c_time then grow_pool t;
    let c = t.pool_used in
    t.pool_used <- c + 1;
    c
  end

let free_cell t c =
  t.c_next.(c) <- t.free_cell;
  t.free_cell <- c

(* Ready-heap: pool ids ordered by (c_time, c_seq). *)

let cell_before t a b =
  let ta = t.c_time.(a) and tb = t.c_time.(b) in
  if ta < tb then true
  else if ta > tb then false
  else t.c_seq.(a) < t.c_seq.(b)

let ready_push t c =
  if t.nready = Array.length t.ready then begin
    let ncap = max 32 (2 * t.nready) in
    let nr = Array.make ncap 0 in
    Array.blit t.ready 0 nr 0 t.nready;
    t.ready <- nr
  end;
  let i = ref t.nready in
  t.nready <- t.nready + 1;
  t.ready.(!i) <- c;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) lsr 1 in
    if cell_before t t.ready.(!i) t.ready.(parent) then begin
      let tmp = t.ready.(parent) in
      t.ready.(parent) <- t.ready.(!i);
      t.ready.(!i) <- tmp;
      i := parent
    end
    else continue_ := false
  done

let ready_pop t =
  let root = t.ready.(0) in
  t.nready <- t.nready - 1;
  if t.nready > 0 then begin
    t.ready.(0) <- t.ready.(t.nready);
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.nready && cell_before t t.ready.(l) t.ready.(!smallest) then
        smallest := l;
      if r < t.nready && cell_before t t.ready.(r) t.ready.(!smallest) then
        smallest := r;
      if !smallest <> !i then begin
        let tmp = t.ready.(!smallest) in
        t.ready.(!smallest) <- t.ready.(!i);
        t.ready.(!i) <- tmp;
        i := !smallest
      end
      else continue_ := false
    done
  end;
  root

(* {1 The wheel}

   Level l holds cells whose tick agrees with the cursor on all digit
   positions above l (base 256) — so a slot is drained exactly when
   the cursor's digit reaches it, and a cascaded cell always re-files
   strictly below.  Cells past level 2's horizon (2^24 ticks) skip the
   wheel for the ready-heap (see [file]). *)

let wheel_count t = t.n0 + t.n1 + t.n2

let push_slot t (arr : int array) slot c =
  t.c_next.(c) <- arr.(slot);
  arr.(slot) <- c

(* File a cell whose tick is already known; tick <= cursor goes
   straight to ready.  Never called for out-of-range ticks ([file]
   sends those to ready; cascades only shorten the range). *)
let insert_cell t c =
  let tick = t.c_tick.(c) in
  if tick <= t.cursor then ready_push t c
  else if tick - t.cursor < 256 then begin
    push_slot t t.l0 (tick land 255) c;
    t.n0 <- t.n0 + 1
  end
  else if (tick lsr 8) - (t.cursor lsr 8) < 256 then begin
    push_slot t t.l1 ((tick lsr 8) land 255) c;
    t.n1 <- t.n1 + 1
  end
  else begin
    push_slot t t.l2 ((tick lsr 16) land 255) c;
    t.n2 <- t.n2 + 1
  end

(* Advance the cursor one tick: cascade upper levels at their digit
   boundaries, then surface the current L0 slot into [ready]. *)
let advance_one t =
  t.cursor <- t.cursor + 1;
  if t.cursor land 255 = 0 then begin
    if t.cursor land 65535 = 0 then begin
      let slot = (t.cursor lsr 16) land 255 in
      let c = ref t.l2.(slot) in
      t.l2.(slot) <- -1;
      while !c >= 0 do
        let nx = t.c_next.(!c) in
        t.n2 <- t.n2 - 1;
        insert_cell t !c;
        c := nx
      done
    end;
    let slot = (t.cursor lsr 8) land 255 in
    let c = ref t.l1.(slot) in
    t.l1.(slot) <- -1;
    while !c >= 0 do
      let nx = t.c_next.(!c) in
      t.n1 <- t.n1 - 1;
      insert_cell t !c;
      c := nx
    done
  end;
  let slot = t.cursor land 255 in
  let c = ref t.l0.(slot) in
  if !c >= 0 then begin
    t.l0.(slot) <- -1;
    while !c >= 0 do
      let nx = t.c_next.(!c) in
      t.n0 <- t.n0 - 1;
      ready_push t !c;
      c := nx
    done
  end

let top_tick t = if t.nready = 0 then max_int else t.c_tick.(t.ready.(0))

(* Surface the wheel until the ready top is the earliest cell anywhere:
   every cell up to the top's tick or, with nothing ready, up to the
   first due slot.  Empty levels let the cursor jump whole 256- or
   65536-tick strides, so idle stretches cost O(1) per cascade boundary
   rather than per tick. *)
let surface t =
  while wheel_count t > 0 && t.cursor < top_tick t do
    if t.n0 = 0 then begin
      let next_boundary =
        if t.n1 = 0 then ((t.cursor lsr 16) + 1) lsl 16
        else ((t.cursor lsr 8) + 1) lsl 8
      in
      if top_tick t < next_boundary then t.cursor <- top_tick t
      else begin
        t.cursor <- next_boundary - 1;
        advance_one t
      end
    end
    else advance_one t
  done;
  if wheel_count t = 0 && t.nready > 0 && t.cursor < top_tick t then
    t.cursor <- top_tick t

(* Huge times clamp to the last tick instead of overflowing; such a
   cell is beyond the horizon, so only its exact time orders it. *)
let tick_of t at =
  let x = at /. t.granularity in
  if x < 0x1p61 then int_of_float x else max_int

(* Stamp a fresh cell with the next seq and file it: into the wheel,
   or, beyond the wheel's horizon, straight into the ready-heap, whose
   exact (time, seq) order needs no tick. *)
let file t ~at ~sink ~tag ~payload =
  let c = alloc_cell t in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let tick = tick_of t at in
  t.c_time.(c) <- at;
  t.c_seq.(c) <- seq;
  t.c_tag.(c) <- tag;
  t.c_payload.(c) <- payload;
  t.c_sink.(c) <- sink;
  t.c_tick.(c) <- tick;
  if tick - t.cursor >= 1 lsl 24 then ready_push t c else insert_cell t c;
  c

let schedule t ~at fn =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %g is before now (%g)" at t.clock);
  let c = file t ~at ~sink:(-1) ~tag:0 ~payload:0 in
  t.c_fn.(c) <- fn

let schedule_in t ~delay fn =
  if delay < 0.0 then invalid_arg "Engine.schedule_in: negative delay";
  schedule t ~at:(t.clock +. delay) fn

let post t ~sink ~at ~tag ~payload =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.post: time %g is before now (%g)" at t.clock);
  if sink < 0 || sink >= t.nsinks then invalid_arg "Engine.post: unknown sink";
  ignore (file t ~at ~sink ~tag ~payload)

let post_in t ~sink ~delay ~tag ~payload =
  if delay < 0.0 then invalid_arg "Engine.post_in: negative delay";
  post t ~sink ~at:(t.clock +. delay) ~tag ~payload

let pending t = wheel_count t + t.nready

let next_at t =
  surface t;
  if t.nready = 0 then None else Some t.c_time.(t.ready.(0))

let run ?until t =
  let continue = ref true in
  while !continue do
    surface t;
    if t.nready = 0 then begin
      (match until with Some u when u > t.clock -> t.clock <- u | _ -> ());
      continue := false
    end
    else
      let c = t.ready.(0) in
      match until with
      | Some u when t.c_time.(c) > u ->
          t.clock <- u;
          continue := false
      | _ ->
          ignore (ready_pop t);
          t.clock <- t.c_time.(c);
          let sink = t.c_sink.(c) in
          if sink < 0 then begin
            let fn = t.c_fn.(c) in
            t.c_fn.(c) <- ignore;
            free_cell t c;
            fn ()
          end
          else begin
            let tag = t.c_tag.(c) and payload = t.c_payload.(c) in
            free_cell t c;
            t.sinks.(sink) tag payload
          end
  done

let every t ~period ?until fn =
  if period <= 0.0 then invalid_arg "Engine.every: period must be positive";
  let rec tick () =
    let next = now t +. period in
    match until with
    | Some u when next > u -> ()
    | _ ->
        schedule t ~at:next (fun () ->
            fn ();
            tick ())
  in
  tick ()
