module Bytebuf = Transport.Bytebuf

module Engine = D2_simnet.Engine

let hello_magic = "D2N1"

(* 4 magic + u32 node + u8 protocol version.  The version byte makes a
   mixed-version cluster fail at connect time with a readable error
   instead of dying mid-stream on an unknown tag or shifted layout. *)
let hello_len = 9

let loopback ~port_base ~n i =
  if i < 0 || i >= n then None
  else Some (Unix.ADDR_INET (Unix.inet_addr_loopback, port_base + i))

type conn = {
  fd : Unix.file_descr;
  owner : t;
  mutable cpeer : int;  (** -1 while an inbound hello is pending *)
  mutable copen : bool;
  mutable connecting : bool;
  outq : Bytebuf.t;
  hello_buf : Bytes.t;
  mutable hello_got : int;
  mutable want_write : bool;  (** write interest currently registered *)
  mutable readable_cb : unit -> unit;
  mutable close_cb : unit -> unit;
}

and t = {
  unode : int;
  addr_of : int -> Unix.sockaddr option;
  listen_fd : Unix.file_descr option;
  ps : Pollset.t;
  by_fd : (int, conn) Hashtbl.t;
  mutable accept_cb : conn -> unit;
  (* Timers (RPC timeouts, node ticks) share the simulator's wheel, at
     a 1 ms tick, clocked in seconds since [t0]: see {!clock}. *)
  timers : Engine.t;
  t0 : float;
  (* Self-pipe: {!wake} (any thread) writes a byte, a blocked {!poll}
     wakes and drains it.  How a background fsync completion gets the
     loop to release the acks it was holding. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

external fd_int : Unix.file_descr -> int = "%identity"

let node t = t.unode
let now _ = Unix.gettimeofday ()
let peer c = c.cpeer
let is_open c = c.copen
let on_accept t cb = t.accept_cb <- cb
let on_readable c cb = c.readable_cb <- cb
let on_close c cb = c.close_cb <- cb

(* The wheel's clock: wall time since creation, never behind the
   engine's own clock, so a wall-clock step back files no timer in the
   engine's past (it only delays them). *)
let clock t = Float.max (Engine.now t.timers) (Unix.gettimeofday () -. t.t0)

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Transport_unix.schedule: negative delay";
  Engine.schedule t.timers ~at:(clock t +. delay) f

(* Readiness interest is persistent: read is always armed on an open
   stream, write only while connecting or while [outq] holds bytes the
   kernel would not take yet. *)
let set_interest c =
  let want = c.connecting || not (Bytebuf.is_empty c.outq) in
  if want <> c.want_write then begin
    c.want_write <- want;
    Pollset.set c.owner.ps c.fd ~read:true ~write:want
  end

let teardown c =
  if c.copen then begin
    c.copen <- false;
    Pollset.remove c.owner.ps c.fd;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Hashtbl.remove c.owner.by_fd (fd_int c.fd)
  end

(* The stream died under us: tear down and tell the owner. *)
let break c =
  if c.copen then begin
    teardown c;
    c.close_cb ()
  end

let close c = teardown c

let flush c =
  if c.copen && not c.connecting then begin
    let continue = ref true in
    while !continue && not (Bytebuf.is_empty c.outq) do
      let buf, off, len = Bytebuf.peek c.outq in
      let n = Fdio.write c.fd buf ~off ~len in
      if n > 0 then Bytebuf.consume c.outq n
      else begin
        continue := false;
        if n <> Fdio.again && n <> 0 then break c
      end
    done;
    if c.copen then set_interest c
  end

let send c buf ~off ~len =
  if len < 0 || off < 0 || off + len > Bytes.length buf then
    invalid_arg "Transport_unix.send: bad range";
  if c.copen then
    if c.connecting || not (Bytebuf.is_empty c.outq) then begin
      Bytebuf.write c.outq buf ~off ~len;
      flush c
    end
    else begin
      (* Nothing queued: write straight from the caller's buffer and
         queue only what the kernel would not take — the common case
         skips the copy into [outq] entirely. *)
      let n = Fdio.write c.fd buf ~off ~len in
      if n < 0 && n <> Fdio.again then break c
      else begin
        let n = max n 0 in
        if n < len then begin
          Bytebuf.write c.outq buf ~off:(off + n) ~len:(len - n);
          set_interest c
        end
      end
    end

let recv_into c buf ~off ~len =
  if not c.copen then 0
  else begin
    let n = Fdio.read c.fd buf ~off ~len in
    if n > 0 then n
    else if n = Fdio.again then 0
    else begin
      (* Orderly EOF or a hard error: either way the stream is done. *)
      break c;
      0
    end
  end

let register t c =
  Hashtbl.replace t.by_fd (fd_int c.fd) c;
  c.want_write <- c.connecting || not (Bytebuf.is_empty c.outq);
  Pollset.set t.ps c.fd ~read:true ~write:c.want_write

let mk_conn owner fd ~cpeer ~connecting =
  {
    fd;
    owner;
    cpeer;
    copen = true;
    connecting;
    outq = Bytebuf.create ();
    hello_buf = Bytes.create hello_len;
    hello_got = (if cpeer >= 0 then hello_len else 0);
    want_write = false;
    readable_cb = ignore;
    close_cb = ignore;
  }

let hello_frame node =
  let b = Bytes.create hello_len in
  Bytes.blit_string hello_magic 0 b 0 4;
  Bytes.set_int32_be b 4 (Int32.of_int node);
  Bytes.set_uint8 b 8 Wire.protocol_version;
  b

let connect t ~dst =
  match t.addr_of dst with
  | None -> None
  | Some addr -> (
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
      match
        try
          Unix.connect fd addr;
          `Done
        with
        | Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN), _, _) ->
            `Pending
        | Unix.Unix_error _ -> `Failed
      with
      | `Failed ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          None
      | (`Done | `Pending) as st ->
          let c = mk_conn t fd ~cpeer:dst ~connecting:(st = `Pending) in
          let hello = hello_frame t.unode in
          Bytebuf.write c.outq hello ~off:0 ~len:hello_len;
          register t c;
          if st = `Done then flush c;
          Some c)

let create ~node ~addr_of ?(listen = true) ?(reuseport = false) () =
  (* Broken streams must surface as EPIPE, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let ps = Pollset.create () in
  let listen_fd =
    if not listen then None
    else
      match addr_of node with
      | None -> invalid_arg "Transport_unix.create: no address for own node"
      | Some addr ->
          let fd = Unix.socket PF_INET SOCK_STREAM 0 in
          Unix.setsockopt fd SO_REUSEADDR true;
          if reuseport then Unix.setsockopt fd SO_REUSEPORT true;
          Unix.bind fd addr;
          Unix.listen fd 128;
          Unix.set_nonblock fd;
          Pollset.set ps fd ~read:true ~write:false;
          Some fd
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  Pollset.set ps wake_r ~read:true ~write:false;
  {
    unode = node;
    addr_of;
    listen_fd;
    ps;
    by_fd = Hashtbl.create 64;
    accept_cb = ignore;
    timers = Engine.create ~granularity:0.001 ();
    t0 = Unix.gettimeofday ();
    wake_r;
    wake_w;
  }

(* Thread-safe; a full pipe means a wake is already pending, and a
   closed one that the endpoint is shut down — both mean "done". *)
let wake t =
  try ignore (Unix.write t.wake_w (Bytes.make 1 '\001') 0 1)
  with Unix.Unix_error _ -> ()

let drain_wake t =
  let buf = Bytes.create 64 in
  let continue = ref true in
  while !continue do
    match Unix.read t.wake_r buf 0 64 with
    | n -> if n < 64 then continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

let shutdown t =
  (match t.listen_fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  (* [close] removes from [by_fd]: snapshot before closing. *)
  List.iter close (Hashtbl.fold (fun _ c acc -> c :: acc) t.by_fd []);
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  Pollset.close t.ps

(* Consume the 9-byte identity hello that opens every inbound stream;
   fires [accept_cb] once complete.  Any payload bytes that arrived in
   the same segment stay in the socket buffer for [recv_into]. *)
let pump_hello t c =
  if c.copen && c.hello_got < hello_len then begin
    match Unix.read c.fd c.hello_buf c.hello_got (hello_len - c.hello_got) with
    | 0 -> break c
    | n ->
        c.hello_got <- c.hello_got + n;
        if c.hello_got = hello_len then
          if Bytes.sub_string c.hello_buf 0 4 <> hello_magic then break c
          else begin
            let peer_version = Bytes.get_uint8 c.hello_buf 8 in
            if peer_version <> Wire.protocol_version then begin
              Printf.eprintf
                "d2net: rejecting peer %ld: protocol version %d, ours is %d \
                 (mixed-version cluster?)\n\
                 %!"
                (Int32.logand (Bytes.get_int32_be c.hello_buf 4) 0xffff_ffffl)
                peer_version Wire.protocol_version;
              break c
            end
            else begin
              c.cpeer <-
                Int32.to_int (Bytes.get_int32_be c.hello_buf 4)
                land 0xffff_ffff;
              t.accept_cb c
            end
          end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> break c
  end

let accept_ready t =
  match t.listen_fd with
  | None -> ()
  | Some lfd ->
      let continue = ref true in
      while !continue do
        match Unix.accept lfd with
        | fd, _addr ->
            Unix.set_nonblock fd;
            (try Unix.setsockopt fd TCP_NODELAY true
             with Unix.Unix_error _ -> ());
            register t (mk_conn t fd ~cpeer:(-1) ~connecting:false)
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
            continue := false
        | exception Unix.Unix_error _ -> continue := false
      done

(* One wakeup: wait on the persistent pollset, then drain every ready
   descriptor — completed connects and pending writes flush first
   (freeing send-buffer space), accepts register new streams, and each
   readable stream's callback consumes everything buffered (the frame
   reader handles back-to-back pipelined frames from one read). *)
let poll t ~timeout =
  if timeout < 0.0 then invalid_arg "Transport_unix.poll: negative timeout";
  let wait_s =
    match Engine.next_at t.timers with
    | None -> timeout
    | Some at -> Float.max 0.0 (Float.min timeout (at -. clock t))
  in
  let timeout_ms = int_of_float (ceil (wait_s *. 1000.0)) in
  (match Pollset.wait t.ps ~timeout_ms with
  | exception Failure _ -> ()
  | n ->
      let lfd_int =
        match t.listen_fd with Some fd -> fd_int fd | None -> -1
      in
      let wake_int = fd_int t.wake_r in
      for i = 0 to n - 1 do
        let fdi = fd_int (Pollset.ready_fd t.ps i) in
        if fdi = wake_int then drain_wake t
        else if fdi = lfd_int then begin
          if Pollset.readable t.ps i then accept_ready t
        end
        else
          match Hashtbl.find_opt t.by_fd fdi with
          | None -> ()  (* torn down earlier this same wakeup *)
          | Some c ->
              if c.copen && Pollset.errored t.ps i && not c.connecting then
                break c
              else begin
                if c.copen && (Pollset.writable t.ps i || Pollset.errored t.ps i)
                then
                  if c.connecting then begin
                    match Unix.getsockopt_error c.fd with
                    | Some _ -> break c
                    | None ->
                        c.connecting <- false;
                        flush c
                  end
                  else flush c;
                if c.copen && Pollset.readable t.ps i then
                  if c.hello_got < hello_len then pump_hello t c
                  else c.readable_cb ()
              end
      done);
  Engine.run t.timers ~until:(clock t)
