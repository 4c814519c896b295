(* The traced run's instrumentation, all of it outside the program.

   [Make (T)] is a pass-through {!D2_net.Transport.S}: the node runtime
   and the client are instantiated over it unchanged.  It times [poll]
   and every callback the program installs (accept, readable, close,
   timers), counts sends and bytes, and decodes a copy of every
   outgoing frame so frames can be counted per tag.  At node endpoints
   it also decodes incoming frames, so a request's residence — request
   frame in to reply frame out, matched by request id on the same
   connection — is measured at the node's transport.

   Spans (name, start, end, the enclosing span that caused them, op id)
   nest on a per-domain stack, so a span's self time is its duration
   minus the time its child spans cover.  Aggregates (count, total,
   self per span kind) live in each endpoint's [stats]; the first
   [keep_cap] spans of each domain are also kept in memory and written
   out by {!dump} when the run ends. *)

module Wire = D2_net.Wire
module Samples = Common.Samples

(* {1 Span kinds} *)

let k_op = 0 (* client op: issue to continuation; a root span *)
let k_issue = 1 (* inside one [*_async] call *)
let k_client_cb = 2
let k_node_cb = 3
let k_flush = 4 (* [Node.flush_store] *)
let k_poll = 5
let k_entry = 6 (* one [Registry.run_entries] entry *)
let n_kinds = 7

let kind_names =
  [|
    "client.op";
    "client.issue";
    "client.callback";
    "node.callback";
    "node.flush_store";
    "poll";
    "sim.entry";
  |]

(* {1 Per-endpoint counters} *)

(* Int counters, indexed by these constants; per-tag frame counts
   follow at [c_tags]. *)
let c_sends = 0
let c_bytes_out = 1
let c_frames_out = 2
let c_polls = 3
let c_frames_in = 4
let c_lookup = 5
let c_fanout = 6
let c_quorum = 7
let c_member = 8
let c_tags = 9

let tag_names =
  [|
    "Lookup"; "Owner"; "Redirect"; "Get"; "Found"; "Missing"; "Put"; "Put_ack";
    "Remove"; "Remove_ack"; "Join"; "Join_ack"; "Probe"; "Probe_ack"; "Error";
    "Sync_digests"; "Sync_digests_ack"; "Sync_keys"; "Sync_keys_ack"; "Fetch";
    "Fetch_ack"; "Push"; "Push_ack"; "Get_q";
  |]

let n_ints = c_tags + Array.length tag_names

let tag_index : Wire.msg -> int = function
  | Lookup _ -> 0
  | Owner _ -> 1
  | Redirect _ -> 2
  | Get _ -> 3
  | Found _ -> 4
  | Missing -> 5
  | Put _ -> 6
  | Put_ack _ -> 7
  | Remove _ -> 8
  | Remove_ack _ -> 9
  | Join _ -> 10
  | Join_ack _ -> 11
  | Probe -> 12
  | Probe_ack _ -> 13
  | Error _ -> 14
  | Sync_digests _ -> 15
  | Sync_digests_ack _ -> 16
  | Sync_keys _ -> 17
  | Sync_keys_ack _ -> 18
  | Fetch _ -> 19
  | Fetch_ack _ -> 20
  | Push _ -> 21
  | Push_ack _ -> 22
  | Get_q _ -> 23

type role = Client | Node

(* Requests whose residence is measured. *)
let r_get = 0
let r_get_q = 1
let r_put = 2

type stats = {
  role : role;
  owner : int;  (** the endpoint's node handle *)
  ints : int array;
  count : int array;  (** per span kind *)
  total : float array;
  self : float array;
  get_res : Samples.t;  (** seconds *)
  put_res : Samples.t;
  pending : (int, int * float) Hashtbl.t;
      (** conn uid, req -> kind, arrival on the transport clock *)
  mutable captured : Bytes.t list;  (** outgoing frames for codec replay *)
}

let capture_cap = 4096

(* The measured window, wall clock: residence samples count only for
   requests that arrived and were answered inside it. *)
let window_open = Atomic.make infinity
let window_close = Atomic.make infinity

let all_stats : stats list ref = ref []
let registry_mu = Mutex.create ()

let with_lock f =
  Mutex.lock registry_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mu) f

let new_stats role owner =
  let st =
    {
      role;
      owner;
      ints = Array.make n_ints 0;
      count = Array.make n_kinds 0;
      total = Array.make n_kinds 0.0;
      self = Array.make n_kinds 0.0;
      get_res = Samples.create ();
      put_res = Samples.create ();
      pending = Hashtbl.create 64;
      captured = [];
    }
  in
  with_lock (fun () -> all_stats := st :: !all_stats);
  st

(* {1 Spans} *)

let keep_cap = 100_000
let max_depth = 64

type kept = {
  mutable n : int;
  dom : int;
  kkind : int array;
  kowner : int array;
  kid : int array;
  kparent : int array;
  kop : int array;
  kstart : float array;
  kstop : float array;
}

type dstate = {
  mutable depth : int;
  f_start : float array;
  f_child : float array;
  f_kind : int array;
  f_st : stats array;
  f_id : int array;
  f_op : int array;
  mutable next_id : int;
  mutable kept : kept option;
}

let dummy_stats =
  {
    role = Client;
    owner = -1;
    ints = [||];
    count = [||];
    total = [||];
    self = [||];
    get_res = Samples.create ();
    put_res = Samples.create ();
    pending = Hashtbl.create 1;
    captured = [];
  }

let all_kept : kept list ref = ref []

let dkey =
  Domain.DLS.new_key (fun () ->
      {
        depth = 0;
        f_start = Array.make max_depth 0.0;
        f_child = Array.make max_depth 0.0;
        f_kind = Array.make max_depth 0;
        f_st = Array.make max_depth dummy_stats;
        f_id = Array.make max_depth 0;
        f_op = Array.make max_depth 0;
        next_id = 0;
        kept = None;
      })

let kept_of d =
  match d.kept with
  | Some k -> k
  | None ->
      let k =
        {
          n = 0;
          dom = (Domain.self () :> int);
          kkind = Array.make keep_cap 0;
          kowner = Array.make keep_cap 0;
          kid = Array.make keep_cap 0;
          kparent = Array.make keep_cap 0;
          kop = Array.make keep_cap 0;
          kstart = Array.make keep_cap 0.0;
          kstop = Array.make keep_cap 0.0;
        }
      in
      d.kept <- Some k;
      with_lock (fun () -> all_kept := k :: !all_kept);
      k

let fresh_id d =
  let id = ((Domain.self () :> int) lsl 40) lor d.next_id in
  d.next_id <- d.next_id + 1;
  id

let keep d ~kind ~(st : stats) ~id ~parent ~op ~start ~stop =
  if start >= Atomic.get window_open then begin
    let k = kept_of d in
    if k.n < keep_cap then begin
      let i = k.n in
      k.kkind.(i) <- kind;
      k.kowner.(i) <- st.owner;
      k.kid.(i) <- id;
      k.kparent.(i) <- parent;
      k.kop.(i) <- op;
      k.kstart.(i) <- start;
      k.kstop.(i) <- stop;
      k.n <- i + 1
    end
  end

let account (st : stats) kind ~dur ~self =
  st.count.(kind) <- st.count.(kind) + 1;
  st.total.(kind) <- st.total.(kind) +. dur;
  st.self.(kind) <- st.self.(kind) +. self

(* Run [f] as a span of [kind] charged to [st], nested under whatever
   span this domain has open. *)
let span (st : stats) kind ?(op = -1) f =
  let d = Domain.DLS.get dkey in
  let i = d.depth in
  if i >= max_depth then f ()
  else begin
    d.f_start.(i) <- Common.now ();
    d.f_child.(i) <- 0.0;
    d.f_kind.(i) <- kind;
    d.f_st.(i) <- st;
    d.f_id.(i) <- fresh_id d;
    d.f_op.(i) <- op;
    d.depth <- i + 1;
    let close () =
      let stop = Common.now () in
      d.depth <- i;
      let start = d.f_start.(i) in
      let dur = stop -. start in
      account st kind ~dur ~self:(dur -. d.f_child.(i));
      if i > 0 then d.f_child.(i - 1) <- d.f_child.(i - 1) +. dur;
      keep d ~kind ~st ~id:d.f_id.(i)
        ~parent:(if i > 0 then d.f_id.(i - 1) else -1)
        ~op:d.f_op.(i) ~start ~stop
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* A client op's root span: it opens in one callback and closes in a
   later one, so it is recorded whole when it concludes. *)
let op_span (st : stats) ~op ~start =
  let d = Domain.DLS.get dkey in
  let stop = Common.now () in
  account st k_op ~dur:(stop -. start) ~self:(stop -. start);
  keep d ~kind:k_op ~st ~id:(fresh_id d) ~parent:(-1) ~op ~start ~stop

(* {1 Snapshots}

   Counters are cumulative; a window's figures are the difference of
   two snapshots, so nothing is reset under a running domain. *)

type snap = {
  s_ints : int array;
  s_count : int array;
  s_total : float array;
  s_self : float array;
}

let snapshot st =
  {
    s_ints = Array.copy st.ints;
    s_count = Array.copy st.count;
    s_total = Array.copy st.total;
    s_self = Array.copy st.self;
  }

let diff a b =
  {
    s_ints = Array.mapi (fun i x -> x - a.s_ints.(i)) b.s_ints;
    s_count = Array.mapi (fun i x -> x - a.s_count.(i)) b.s_count;
    s_total = Array.mapi (fun i x -> x -. a.s_total.(i)) b.s_total;
    s_self = Array.mapi (fun i x -> x -. a.s_self.(i)) b.s_self;
  }

let stats () = with_lock (fun () -> List.rev !all_stats)
let snapshot_all () = List.map (fun st -> (st, snapshot st)) (stats ())

(* Window deltas for every endpoint that existed at [before]; later
   endpoints (nodes that joined during the window) count whole. *)
let deltas before =
  List.map
    (fun st ->
      let now = snapshot st in
      match List.assq_opt st before with
      | Some b -> (st, diff b now)
      | None -> (st, now))
    (stats ())

let open_window () =
  Atomic.set window_close infinity;
  Atomic.set window_open (Common.now ())

let close_window () = Atomic.set window_close (Common.now ())

(* Write the kept spans, one per line: domain, id, parent, op, name,
   owner node, start and end in µs from the window's opening. *)
let dump path =
  let t0 = Atomic.get window_open in
  let oc = open_out path in
  output_string oc "domain\tid\tparent\top\tname\towner\tstart_us\tend_us\n";
  List.iter
    (fun k ->
      for i = 0 to k.n - 1 do
        Printf.fprintf oc "%d\t%d\t%d\t%d\t%s\t%d\t%.1f\t%.1f\n" k.dom k.kid.(i)
          k.kparent.(i) k.kop.(i)
          kind_names.(k.kkind.(i))
          k.kowner.(i)
          ((k.kstart.(i) -. t0) *. 1e6)
          ((k.kstop.(i) -. t0) *. 1e6)
      done)
    (with_lock (fun () -> !all_kept));
  close_out oc

(* {1 Frame accounting} *)

let is_node_peer = ref (fun (_ : int) -> false)
let in_window t = t >= Atomic.get window_open && t <= Atomic.get window_close

let bump st i = st.ints.(i) <- st.ints.(i) + 1

(* A sample of the window's outgoing frames, shared by all endpoints:
   every 16th frame, up to [capture_cap] in all. *)
let frames_seen = Atomic.make 0
let frames_kept = Atomic.make 0

let capture st ~req msg =
  if in_window (Common.now ()) then
    if Atomic.fetch_and_add frames_seen 1 land 15 = 0 then
      if Atomic.fetch_and_add frames_kept 1 < capture_cap then
        st.captured <- Wire.encode ~req msg :: st.captured

(* One outgoing frame from [st] on connection [uid] to [peer]; [clock]
   is the endpoint's transport clock (virtual under [Transport_mem]). *)
let on_frame_out st ~clock ~uid ~peer ~req (msg : Wire.msg) =
  bump st c_frames_out;
  bump st (c_tags + tag_index msg);
  capture st ~req msg;
  (match msg with
  | Lookup _ | Owner _ | Redirect _ -> bump st c_lookup
  | Put { depth = 0; _ } when st.role = Node -> bump st c_fanout
  | Put_ack _ when st.role = Node && !is_node_peer peer -> bump st c_fanout
  | Get_q _ | Fetch _ | Fetch_ack _ -> bump st c_quorum
  | Join _ | Join_ack _ | Probe | Probe_ack _ -> bump st c_member
  | _ -> ());
  if st.role = Node && not (Wire.is_request msg) then begin
    let key = (uid lsl 32) lor req in
    match Hashtbl.find_opt st.pending key with
    | None -> ()
    | Some (kind, t_in) ->
        Hashtbl.remove st.pending key;
        if kind = r_get_q then bump st c_quorum;
        if in_window (Common.now ()) then
          Samples.add
            (if kind = r_put then st.put_res else st.get_res)
            (clock () -. t_in)
  end

(* One incoming frame at a node endpoint. *)
let on_frame_in st ~clock ~uid ~req (msg : Wire.msg) =
  bump st c_frames_in;
  let track kind =
    if in_window (Common.now ()) then
      Hashtbl.replace st.pending ((uid lsl 32) lor req) (kind, clock ())
  in
  match msg with
  | Get _ -> track r_get
  | Get_q _ -> track r_get_q
  | Put { depth; _ } when depth > 0 -> track r_put
  | _ -> ()

(* Frame reassembly for a copied byte stream.  Each direction of a
   connection gets a small growable buffer (the program's own readers
   reserve a full [Wire.max_frame] each, which a 64-node mesh cannot
   afford twice over). *)
module Bytebuf = D2_net.Transport.Bytebuf

let feed buf src ~off ~len f =
  Bytebuf.write buf src ~off ~len;
  let rec loop () =
    let b, o, n = Bytebuf.peek buf in
    if n > 0 then
      match Wire.decode b ~off:o ~len:n with
      | Ok (req, msg, used) ->
          Bytebuf.consume buf used;
          f ~req msg;
          loop ()
      | Error Wire.Short -> ()
      | Error (Wire.Malformed _) -> Bytebuf.consume buf n
  in
  loop ()

(* {1 The wrapper} *)

module Make (T : D2_net.Transport.S) = struct
  type t = { inner : T.t; st : stats }

  type conn = {
    c : T.conn;
    ep : t;
    uid : int;
    out_buf : Bytebuf.t;
    in_buf : Bytebuf.t option;
  }

  let conn_ids = Atomic.make 0

  let wrap inner ~role = { inner; st = new_stats role (T.node inner) }
  let inner t = t.inner
  let stats t = t.st
  let cb_kind t = if t.st.role = Node then k_node_cb else k_client_cb

  let mk ep c =
    {
      c;
      ep;
      uid = Atomic.fetch_and_add conn_ids 1;
      out_buf = Bytebuf.create ();
      in_buf = (if ep.st.role = Node then Some (Bytebuf.create ()) else None);
    }

  let node t = T.node t.inner
  let now t = T.now t.inner
  let connect t ~dst = Option.map (mk t) (T.connect t.inner ~dst)
  let peer c = T.peer c.c
  let is_open c = T.is_open c.c

  let send c buf ~off ~len =
    let st = c.ep.st in
    bump st c_sends;
    st.ints.(c_bytes_out) <- st.ints.(c_bytes_out) + len;
    feed c.out_buf buf ~off ~len
      (on_frame_out st ~clock:(fun () -> T.now c.ep.inner) ~uid:c.uid
         ~peer:(T.peer c.c));
    T.send c.c buf ~off ~len

  let recv_into c buf ~off ~len =
    let n = T.recv_into c.c buf ~off ~len in
    (match c.in_buf with
    | Some b when n > 0 ->
        feed b buf ~off ~len:n
          (on_frame_in c.ep.st ~clock:(fun () -> T.now c.ep.inner) ~uid:c.uid)
    | _ -> ());
    n

  let close c = T.close c.c

  let on_accept t cb =
    T.on_accept t.inner (fun ic ->
        let c = mk t ic in
        span t.st (cb_kind t) (fun () -> cb c))

  let on_readable c cb =
    T.on_readable c.c (fun () -> span c.ep.st (cb_kind c.ep) cb)

  let on_close c cb = T.on_close c.c (fun () -> span c.ep.st (cb_kind c.ep) cb)

  let schedule t ~delay f =
    T.schedule t.inner ~delay (fun () -> span t.st (cb_kind t) f)

  let poll t ~timeout =
    bump t.st c_polls;
    span t.st k_poll (fun () -> T.poll t.inner ~timeout)
end

(* {1 Codec replay}

   The captured frames, decoded and re-encoded in a timed loop: the
   wire layer's cost per frame on the frame mix the run produced. *)
let codec_ns frames =
  let frames = Array.of_list frames in
  let n = Array.length frames in
  if n = 0 then (0.0, 0.0)
  else begin
    let msgs =
      Array.map
        (fun b ->
          match Wire.decode b ~off:0 ~len:(Bytes.length b) with
          | Ok (req, msg, _) -> (req, msg)
          | Error _ -> failwith "captured frame does not decode")
        frames
    in
    let buf = Bytes.create Wire.max_frame in
    let timed f =
      let rounds = ref 0 and t0 = Common.now () in
      while Common.now () -. t0 < 0.05 || !rounds < 3 do
        f ();
        incr rounds
      done;
      (Common.now () -. t0) *. 1e9 /. float_of_int (!rounds * n)
    in
    let dec =
      timed (fun () ->
          Array.iter
            (fun b -> ignore (Wire.decode b ~off:0 ~len:(Bytes.length b)))
            frames)
    in
    let enc =
      timed (fun () ->
          Array.iter
            (fun (req, msg) -> ignore (Wire.encode_into buf ~off:0 ~req msg))
            msgs)
    in
    (enc, dec)
  end
