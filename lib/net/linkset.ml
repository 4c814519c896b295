(* Shared per-connection machinery for the node runtime and the
   client: frame reassembly on the receive path, request-id
   correlation for outstanding RPCs, timeouts, and link reuse.  Both
   directions of one stream are symmetrical — either side may issue
   requests — so replies are told apart from requests by tag
   ([Wire.is_request]), never by who connected.

   Outbound frames coalesce: every encode lands in the link's output
   buffer and the buffer reaches the transport as ONE [send] at the
   next flush point (end of the dispatch that produced the replies,
   immediately for a lone RPC, explicitly for a pipelined batch) —
   that single send is what amortizes per-write syscalls under
   pipelining. *)

module Bytebuf = Transport.Bytebuf

module Make (T : Transport.S) = struct
  type link = {
    lpeer : int;
    conn : T.conn;
    owner : t;
    reader : Wire.Reader.t;
    outbuf : Bytebuf.t;
    mutable dirty : bool;  (** queued on [owner.dirty_links] *)
    pending : (int, Wire.msg option -> unit) Hashtbl.t;
    mutable next_req : int;
  }

  and t = {
    ep : T.t;
    links : (int, link) Hashtbl.t;  (** newest usable link per peer *)
    mutable dirty_links : link list;
    mutable on_request : link -> int -> Wire.msg -> unit;
    mutable on_peer_down : int -> unit;
  }

  let create ep =
    {
      ep;
      links = Hashtbl.create 32;
      dirty_links = [];
      on_request = (fun _ _ _ -> ());
      on_peer_down = ignore;
    }

  let endpoint t = t.ep
  let set_on_request t f = t.on_request <- f
  let set_on_peer_down t f = t.on_peer_down <- f

  let flush_link l =
    l.dirty <- false;
    if not (Bytebuf.is_empty l.outbuf) then begin
      let buf, off, len = Bytebuf.peek l.outbuf in
      T.send l.conn buf ~off ~len;
      Bytebuf.consume l.outbuf len
    end

  (* Flushing can fail a link, whose pending callbacks may queue new
     frames on other links — loop until no link is left dirty. *)
  let rec flush_all t =
    match t.dirty_links with
    | [] -> ()
    | ls ->
        t.dirty_links <- [];
        List.iter flush_link (List.rev ls);
        flush_all t

  let send_msg l ~req msg =
    let t = l.owner in
    ignore (Wire.write l.outbuf ~req msg);
    if not l.dirty then begin
      l.dirty <- true;
      t.dirty_links <- l :: t.dirty_links
    end

  let reply = send_msg

  let fail_pending l =
    let cbs = Hashtbl.fold (fun _ cb acc -> cb :: acc) l.pending [] in
    Hashtbl.reset l.pending;
    List.iter (fun cb -> cb None) cbs

  let unregister t l =
    (match Hashtbl.find_opt t.links l.lpeer with
    | Some cur when cur == l -> Hashtbl.remove t.links l.lpeer
    | _ -> ());
    fail_pending l

  (* Read everything the transport has buffered into the frame
     reassembler; [recv_into] writes straight into the reader's
     buffer. *)
  let recv_chunk = 65536

  let drain_bytes l =
    let continue = ref true in
    while !continue do
      let buf, off = Bytebuf.reserve l.reader recv_chunk in
      let n = T.recv_into l.conn buf ~off ~len:recv_chunk in
      if n > 0 then Bytebuf.commit l.reader n else continue := false
    done

  let dispatch t l =
    let continue = ref true in
    while !continue do
      match Wire.Reader.next l.reader with
      | `Awaiting -> continue := false
      | `Corrupt _why ->
          continue := false;
          T.close l.conn;
          unregister t l
      | `Msg (req, msg) -> (
          if Wire.is_request msg then t.on_request l req msg
          else
            match Hashtbl.find_opt l.pending req with
            | Some cb ->
                Hashtbl.remove l.pending req;
                cb (Some msg)
            | None -> () (* reply to a timed-out request: drop *))
    done;
    (* Everything this batch of inbound frames produced — replies,
       fan-out forwards, retries — leaves as one send per link. *)
    flush_all t

  let attach t conn =
    let l =
      {
        lpeer = T.peer conn;
        conn;
        owner = t;
        reader = Wire.Reader.create ();
        outbuf = Bytebuf.create ();
        dirty = false;
        pending = Hashtbl.create 8;
        next_req = 1;
      }
    in
    Hashtbl.replace t.links l.lpeer l;
    T.on_readable conn (fun () ->
        drain_bytes l;
        dispatch t l);
    T.on_close conn (fun () ->
        unregister t l;
        t.on_peer_down l.lpeer;
        flush_all t);
    l

  let link_to t dst =
    match Hashtbl.find_opt t.links dst with
    | Some l when T.is_open l.conn -> Some l
    | _ -> (
        match T.connect t.ep ~dst with
        | None -> None
        | Some conn -> Some (attach t conn))

  let drop_link t dst =
    match Hashtbl.find_opt t.links dst with
    | Some l ->
        T.close l.conn;
        unregister t l;
        flush_all t
    | None -> ()

  (* Fire-and-callback RPC.  The callback runs exactly once: with the
     reply, or with [None] on timeout or link death.  [defer] leaves
     the frame coalescing in the link buffer for a later {!flush_all}
     — the pipelined client queues a whole window this way and flushes
     it as one write. *)
  let rpc ?(defer = false) t ~dst ~timeout msg cb =
    match link_to t dst with
    | None -> cb None
    | Some l ->
        let req = l.next_req in
        l.next_req <- req + 1;
        Hashtbl.replace l.pending req cb;
        T.schedule t.ep ~delay:timeout (fun () ->
            match Hashtbl.find_opt l.pending req with
            | Some cb ->
                Hashtbl.remove l.pending req;
                cb None;
                flush_all t
            | None -> ());
        send_msg l ~req msg;
        if not defer then flush_all t

  (* One event-loop step on behalf of a caller that issued deferred
     RPCs: push every queued frame out first, then poll. *)
  let poll t ~timeout =
    flush_all t;
    T.poll t.ep ~timeout;
    flush_all t
end
