module Engine = D2_simnet.Engine
module Topology = D2_simnet.Topology
module Rng = D2_util.Rng
module Bytebuf = Transport.Bytebuf

type conn = {
  cnet : net;
  src : int;  (** local endpoint's node *)
  dst : int;
  inbox : Bytebuf.t;
  mutable copen : bool;
  mutable remote : conn option;
  mutable readable_cb : unit -> unit;
  mutable close_cb : unit -> unit;
}

and t = { net : net; enode : int; mutable up : bool; mutable accept_cb : conn -> unit }

and net = {
  eng : Engine.t;
  topo : Topology.t;
  loss : float;
  lrng : Rng.t;
  endpoints : t option array;
  mutable conns : conn list;
  mutable cuts : cut list;
}

(* One partition episode.  Keeping the history (not just the current
   predicate) lets a delivery ask "was this link severed at any point
   while the frame was in flight?" — a frame on the wire when the cable
   is cut is lost even if the cut heals before the frame's nominal
   arrival time. *)
and cut = {
  pred : int -> int -> bool;
  cut_start : float;
  mutable cut_stop : float option;  (** [None] while the cut is active *)
}

let create_net ~engine ~topology ?(loss = 0.0) ?(seed = 0x6e67) () =
  if loss < 0.0 || loss >= 1.0 then
    invalid_arg "Transport_mem.create_net: loss must be in [0, 1)";
  {
    eng = engine;
    topo = topology;
    loss;
    lrng = Rng.create seed;
    endpoints = Array.make (Topology.size topology) None;
    conns = [];
    cuts = [];
  }

let engine net = net.eng

let endpoint net ~node =
  if node < 0 || node >= Array.length net.endpoints then
    invalid_arg "Transport_mem.endpoint: node outside topology";
  if net.endpoints.(node) <> None then
    invalid_arg "Transport_mem.endpoint: node already bound";
  let ep = { net; enode = node; up = true; accept_cb = ignore } in
  net.endpoints.(node) <- Some ep;
  ep

let is_up net node =
  match net.endpoints.(node) with Some ep -> ep.up | None -> false

let set_partition net sep =
  let now = Engine.now net.eng in
  List.iter
    (fun c -> if c.cut_stop = None then c.cut_stop <- Some now)
    net.cuts;
  match sep with
  | None -> ()
  | Some pred -> net.cuts <- { pred; cut_start = now; cut_stop = None } :: net.cuts

(* Was (a, b) severed at any point in (since, now]?  A cut overlaps
   that window iff it had not ended by [since] (every recorded cut
   started at or before now). *)
let severed_since net a b ~since =
  List.exists
    (fun c ->
      (match c.cut_stop with None -> true | Some stop -> stop > since)
      && c.cut_start <= Engine.now net.eng
      && c.pred a b)
    net.cuts

let node t = t.enode
let now t = Engine.now t.net.eng
let peer c = c.dst
let is_open c = c.copen

let on_accept t cb = t.accept_cb <- cb
let on_readable c cb = c.readable_cb <- cb
let on_close c cb = c.close_cb <- cb

let schedule t ~delay f = Engine.schedule_in t.net.eng ~delay f

let delay_of net src dst = Topology.one_way net.topo src dst

(* Deliver a close to [c]'s remote side one propagation delay later
   (the FIN crossing the wire).  Droppable by partition like any other
   delivery — the far side then lingers until its own sends time out. *)
let shutdown_remote c =
  let sent = Engine.now c.cnet.eng in
  match c.remote with
  | None -> ()
  | Some r ->
      Engine.schedule_in c.cnet.eng ~delay:(delay_of c.cnet c.src c.dst)
        (fun () ->
          if r.copen && not (severed_since c.cnet c.src c.dst ~since:sent)
          then begin
            r.copen <- false;
            r.close_cb ()
          end)

let close c =
  if c.copen then begin
    c.copen <- false;
    shutdown_remote c
  end

(* A loss draw resets the stream: both directions break, the local
   side hears about it asynchronously (as a real RST would arrive). *)
let reset c =
  if c.copen then begin
    c.copen <- false;
    shutdown_remote c;
    Engine.schedule_in c.cnet.eng ~delay:0.0 (fun () -> c.close_cb ())
  end

let send c buf ~off ~len =
  if len < 0 || off < 0 || off + len > Bytes.length buf then
    invalid_arg "Transport_mem.send: bad range";
  if c.copen && is_up c.cnet c.src then begin
    if c.cnet.loss > 0.0 && Rng.float c.cnet.lrng 1.0 < c.cnet.loss then reset c
    else begin
      let data = Bytes.sub buf off len in
      let net = c.cnet in
      let sent = Engine.now net.eng in
      Engine.schedule_in net.eng ~delay:(delay_of net c.src c.dst) (fun () ->
          match c.remote with
          | Some r
            when r.copen && is_up net c.dst
                 && not (severed_since net c.src c.dst ~since:sent)
            ->
              Bytebuf.write r.inbox data ~off:0 ~len:(Bytes.length data);
              r.readable_cb ()
          | _ -> ())
    end
  end

let recv_into c buf ~off ~len = Bytebuf.read_into c.inbox buf ~off ~len

let connect t ~dst =
  if (not t.up) || dst < 0 || dst >= Array.length t.net.endpoints then None
  else
    match t.net.endpoints.(dst) with
    | None -> None
    | Some dep when not dep.up -> None
    | Some dep ->
        let net = t.net in
        let a =
          {
            cnet = net;
            src = t.enode;
            dst;
            inbox = Bytebuf.create ();
            copen = true;
            remote = None;
            readable_cb = ignore;
            close_cb = ignore;
          }
        in
        let b =
          {
            cnet = net;
            src = dst;
            dst = t.enode;
            inbox = Bytebuf.create ();
            copen = true;
            remote = Some a;
            readable_cb = ignore;
            close_cb = ignore;
          }
        in
        a.remote <- Some b;
        net.conns <- a :: b :: net.conns;
        (* The SYN crosses the wire like any delivery: the server side
           only comes alive if the path stayed clear for the whole
           flight and the peer is still up when it arrives. *)
        let sent = Engine.now net.eng in
        Engine.schedule_in net.eng ~delay:(delay_of net t.enode dst) (fun () ->
            if b.copen then
              if dep.up && not (severed_since net t.enode dst ~since:sent)
              then dep.accept_cb b
              else b.copen <- false);
        Some a

let kill net n =
  (match net.endpoints.(n) with
  | Some ep when ep.up ->
      ep.up <- false;
      List.iter
        (fun c ->
          if c.copen then
            if c.src = n then begin
              (* The dying side just stops; its peers hear a break. *)
              c.copen <- false;
              shutdown_remote c
            end)
        net.conns
  | _ -> ());
  net.conns <- List.filter (fun c -> c.copen) net.conns

let poll t ~timeout =
  if timeout < 0.0 then invalid_arg "Transport_mem.poll: negative timeout";
  let eng = t.net.eng in
  Engine.run eng ~until:(Engine.now eng +. timeout)
