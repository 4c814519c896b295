type conn = { mutable cwnd : float; mutable last_used : float }

(* Segment payload bytes (1500-byte packets), and the idle time in
   seconds after which the window resets. *)
let mss = 1460
let initial_window = 2.0
let default_rto = 0.2
let max_window = 64.0

let fresh_conn () = { cwnd = initial_window; last_used = neg_infinity }

let effective_window ?(rto = default_rto) conn ~now =
  if now -. conn.last_used > rto then initial_window else conn.cwnd

let window conn ~now ?(rto = default_rto) () = effective_window ~rto conn ~now

let transfer_time ?(rto = default_rto) conn ~now ~rtt ~bandwidth ~bytes =
  if bytes < 0 then invalid_arg "Tcp.transfer_time: negative size";
  if bandwidth <= 0.0 then invalid_arg "Tcp.transfer_time: bandwidth must be positive";
  if rtt < 0.0 then invalid_arg "Tcp.transfer_time: negative rtt";
  let cwnd = ref (effective_window ~rto conn ~now) in
  let packets = ref ((bytes + mss - 1) / mss) in
  (* The request and the first window of the response cost one RTT. *)
  let elapsed = ref 0.0 in
  let rounds = ref 0 in
  while !packets > 0 do
    let sent = min !packets (int_of_float !cwnd) in
    let sent = max sent 1 in
    let serialization = float_of_int (sent * mss * 8) /. bandwidth in
    elapsed := !elapsed +. max rtt serialization;
    packets := !packets - sent;
    cwnd := Float.min max_window (!cwnd *. 2.0);
    incr rounds
  done;
  if !rounds = 0 then elapsed := rtt;
  conn.cwnd <- !cwnd;
  conn.last_used <- now +. !elapsed;
  !elapsed
