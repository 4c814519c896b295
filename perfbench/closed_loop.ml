(* The closed-loop issuer every live workload shares.

   Each client keeps [window] ops in flight.  Two ops on one key never
   overlap, across all clients: an op whose key is in flight queues
   behind it and issues from its predecessor's completion (d2load's
   hazard rule), so every get has exactly one write it must return —
   the last acked one — and is checked against it byte for byte.

   Ops come from a per-client stream that is a pure function of the
   workload's seed.  A read of a key that holds nothing seeds it with a
   put, and a delete of such a key is skipped, as d2load does. *)

module Key = D2_keyspace.Key
module Samples = Common.Samples
module Payload = Common.Payload

type kind = Read | Write | Delete
type op = { kind : kind; key : Key.t; len : int }

module type CLIENT = sig
  type t

  val put_async :
    t -> key:Key.t -> data:string -> ([ `Ok of int | `Failed ] -> unit) -> unit

  val get_async :
    t -> key:Key.t -> ([ `Found of string | `Missing | `Failed ] -> unit) -> unit

  val remove_async : t -> key:Key.t -> ([ `Ok of bool | `Failed ] -> unit) -> unit
  val in_flight : t -> int
end

(* Tracing hooks: [issue c ~op f] runs client [c]'s [*_async] call for
   op [op]; [op_done c ~op ~start] closes the op's root span. *)
type hooks = {
  issue : int -> op:int -> (unit -> unit) -> unit;
  op_done : int -> op:int -> start:float -> unit;
}

let no_hooks =
  { issue = (fun _ ~op:_ f -> f ()); op_done = (fun _ ~op:_ ~start:_ -> ()) }

(* What one phase (preload, warm-up, window) issued and saw. *)
type tally = {
  mutable ops : int;
  mutable gets : int;
  mutable puts : int;
  mutable removes : int;
  mutable seed_puts : int;  (** puts issued for a read of an empty key *)
  mutable failed : int;
  mutable verify_errors : int;
  mutable bytes_moved : int;
  get_lat : Samples.t;  (** workload clock, seconds *)
  put_lat : Samples.t;
  rm_lat : Samples.t;
}

let new_tally () =
  {
    ops = 0;
    gets = 0;
    puts = 0;
    removes = 0;
    seed_puts = 0;
    failed = 0;
    verify_errors = 0;
    bytes_moved = 0;
    get_lat = Samples.create ();
    put_lat = Samples.create ();
    rm_lat = Samples.create ();
  }

module Make (C : CLIENT) = struct
  type t = {
    clients : C.t array;
    window : int;
    clock : unit -> float;
    payload : Payload.t;
    expect : Common.expect Key.Table.t;
    active : unit Key.Table.t;
    blocked : (int * op) Queue.t Key.Table.t;
    outstanding : int array;  (** per client: issued + queued *)
    hooks : hooks;
    mutable next_op_id : int;
  }

  let create ?(hooks = no_hooks) ~clients ~window ~clock ~payload () =
    {
      clients;
      window;
      clock;
      payload;
      expect = Key.Table.create 4096;
      active = Key.Table.create 256;
      blocked = Key.Table.create 256;
      outstanding = Array.make (Array.length clients) 0;
      hooks;
      next_op_id = 0;
    }

  let expect t = t.expect

  let entry t key =
    match Key.Table.find_opt t.expect key with
    | Some e -> e
    | None ->
        let e =
          {
            Common.slot = Key.Table.length t.expect;
            ver = 0;
            len = 0;
            live = false;
            next_ver = 1;
          }
        in
        Key.Table.replace t.expect key e;
        e

  let live_bytes t =
    Key.Table.fold
      (fun _ (e : Common.expect) acc -> if e.live then acc + e.len else acc)
      t.expect 0

  let live_keys t =
    Key.Table.fold
      (fun _ (e : Common.expect) acc -> if e.live then acc + 1 else acc)
      t.expect 0

  let total_outstanding t = Array.fold_left ( + ) 0 t.outstanding

  (* Issue [op] for client [ci]; its key is not in flight. *)
  let rec issue t tally ci (op : op) =
    Key.Table.replace t.active op.key ();
    let e = entry t op.key in
    let t0 = t.clock () and w0 = Common.now () in
    let id = t.next_op_id in
    t.next_op_id <- id + 1;
    tally.ops <- tally.ops + 1;
    let finish lat =
      Samples.add lat (t.clock () -. t0);
      t.hooks.op_done ci ~op:id ~start:w0;
      t.outstanding.(ci) <- t.outstanding.(ci) - 1;
      match Key.Table.find_opt t.blocked op.key with
      | None -> Key.Table.remove t.active op.key
      | Some q ->
          let ci', next = Queue.pop q in
          if Queue.is_empty q then Key.Table.remove t.blocked op.key;
          issue t tally ci' next
    in
    let c = t.clients.(ci) in
    let put len =
      let ver = e.next_ver in
      e.next_ver <- ver + 1;
      let len = Payload.clamp len in
      let data = Payload.make t.payload ~slot:e.slot ~ver ~len in
      tally.puts <- tally.puts + 1;
      tally.bytes_moved <- tally.bytes_moved + len;
      t.hooks.issue ci ~op:id (fun () ->
          C.put_async c ~key:op.key ~data (fun r ->
              (match r with
              | `Ok _ ->
                  e.ver <- ver;
                  e.len <- len;
                  e.live <- true
              | `Failed -> tally.failed <- tally.failed + 1);
              finish tally.put_lat))
    in
    match op.kind with
    | Write -> put op.len
    | Read when not e.live ->
        tally.seed_puts <- tally.seed_puts + 1;
        put op.len
    | Read ->
        let ver = e.ver and len = e.len in
        tally.gets <- tally.gets + 1;
        t.hooks.issue ci ~op:id (fun () ->
            C.get_async c ~key:op.key (fun r ->
                (match r with
                | `Found data ->
                    tally.bytes_moved <- tally.bytes_moved + String.length data;
                    if not (Payload.check t.payload data ~slot:e.slot ~ver ~len)
                    then tally.verify_errors <- tally.verify_errors + 1
                | `Missing -> tally.verify_errors <- tally.verify_errors + 1
                | `Failed -> tally.failed <- tally.failed + 1);
                finish tally.get_lat))
    | Delete ->
        tally.removes <- tally.removes + 1;
        t.hooks.issue ci ~op:id (fun () ->
            C.remove_async c ~key:op.key (fun r ->
                (match r with
                | `Ok _ -> e.live <- false
                | `Failed -> tally.failed <- tally.failed + 1);
                finish tally.rm_lat))

  (* Offer client [ci]'s next op: issue it, queue it behind its key, or
     skip it (a delete of a key that holds nothing). *)
  let offer t tally ci (op : op) =
    let busy = Key.Table.mem t.active op.key in
    let empty =
      match Key.Table.find_opt t.expect op.key with
      | Some e -> not e.live
      | None -> true
    in
    if op.kind = Delete && empty && not busy then ()
    else begin
      t.outstanding.(ci) <- t.outstanding.(ci) + 1;
      if busy then begin
        let q =
          match Key.Table.find_opt t.blocked op.key with
          | Some q -> q
          | None ->
              let q = Queue.create () in
              Key.Table.replace t.blocked op.key q;
              q
        in
        Queue.push (ci, op) q
      end
      else issue t tally ci op
    end

  (* Closed loop until [stop ()] says to stop issuing (or every stream
     ran dry), then drain what is in flight.  [next ci] is client
     [ci]'s next op, [None] when its stream is exhausted; [step ()]
     moves the world forward (poll). *)
  let run t tally ~next ~stop ~step =
    let n = Array.length t.clients in
    let lookahead = max (4 * t.window) 64 in
    let dry = Array.make n false in
    let stopped = ref false in
    while (not !stopped) || total_outstanding t > 0 do
      if not !stopped then begin
        if stop () then stopped := true
        else begin
          for ci = 0 to n - 1 do
            let continue = ref (not dry.(ci)) in
            while
              !continue
              && C.in_flight t.clients.(ci) < t.window
              && t.outstanding.(ci) < lookahead
            do
              match next ci with
              | None ->
                  dry.(ci) <- true;
                  continue := false
              | Some op -> offer t tally ci op
            done
          done;
          if Array.for_all Fun.id dry then stopped := true
        end
      end;
      step ()
    done

  (* Read back every live key and check it against its last acked
     write.  Returns (keys checked, errors). *)
  let read_back t ~step =
    let checked = ref 0 and errors = ref 0 and pending = ref 0 in
    let c = t.clients.(0) in
    Key.Table.iter
      (fun key (e : Common.expect) ->
        if e.live then begin
          while C.in_flight c >= t.window do
            step ()
          done;
          incr checked;
          incr pending;
          let ver = e.ver and len = e.len in
          C.get_async c ~key (fun r ->
              (match r with
              | `Found data
                when Payload.check t.payload data ~slot:e.slot ~ver ~len ->
                  ()
              | `Found _ | `Missing | `Failed -> incr errors);
              decr pending)
        end)
      t.expect;
    while !pending > 0 do
      step ()
    done;
    (!checked, !errors)
end

(* {1 Reporting a tally} *)

let traffic_lines ~label (t : tally) ~distinct ~live_bytes =
  let tot = max 1 (t.gets + t.puts + t.removes) in
  let pct x = 100.0 *. float_of_int x /. float_of_int tot in
  Printf.printf
    "  traffic (%s): %d ops = %.1f%% reads, %.1f%% writes (%d seeding an \
     empty key), %.2f%% removes; %d distinct keys; %.1f MB moved; live data \
     %.1f MB\n"
    label t.ops (pct t.gets) (pct t.puts) t.seed_puts (pct t.removes) distinct
    (float_of_int t.bytes_moved /. 1048576.0)
    (float_of_int live_bytes /. 1048576.0)
