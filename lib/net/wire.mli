(** Wire protocol: length-prefixed binary frames for the D2 RPCs.

    Every message travels as one frame:

    {v
      bytes 0..3   u32 big-endian frame length L (= 5 + body length)
      bytes 4..7   u32 big-endian request id (echoed by the reply)
      byte  8      message tag
      bytes 9..    body (fixed layout per tag; keys are 64 raw bytes,
                   node handles u32, block payloads u32 length + bytes)
    v}

    The codec is total: {!decode} classifies any byte string as a
    message, a {!Short} prefix (wait for more bytes), or {!Malformed}
    (protocol violation — drop the connection); it never raises.
    Payloads are capped at {!max_payload} (the 8 KB D2-Store block),
    frames at {!max_frame}, so a malicious length field cannot force
    an allocation. *)

module Key = D2_keyspace.Key
module Vv = D2_sync.Version_vector

val protocol_version : int
(** Frame-set revision, exchanged in the transport hello; peers with a
    different version are rejected at connect time with a clear error
    instead of failing mid-stream on an unknown tag. *)

val max_payload : int
(** Largest block payload a frame may carry (8192, {!D2_trace.Op.block_size}). *)

val max_members : int
(** Largest membership list a [Join_ack] may carry (4096 nodes). *)

val max_sync_items : int
(** Largest entry list a [Sync_keys_ack] may carry (256); a bigger
    bucket is narrowed by another digest round instead. *)

val max_frame : int
(** Upper bound on a whole frame, length prefix included. *)

type msg =
  | Lookup of { key : Key.t }
      (** who owns [key]?  Answered with [Owner] (the receiver owns it)
          or [Redirect] (iterative lookup: ask [next] instead). *)
  | Owner of { node : int; lo : Key.t; hi : Key.t }
      (** [node] owns the half-open ring range [(lo, hi]] — exactly
          what the client's range cache stores (§5). *)
  | Redirect of { next : int }
  | Get of { key : Key.t }
  | Found of { data : string }
  | Missing
  | Put of { key : Key.t; depth : int; vv : Vv.t; data : string }
      (** [depth > 0]: the receiver coordinates and fans the block out
          to its [depth] follow-up replica holders; [depth = 0]: store
          locally only (a fan-out copy).  A client sends [vv] empty and
          the coordinator stamps it; fan-out copies carry the stamped
          vector so every replica records the same version. *)
  | Put_ack of { copies : int; vv : Vv.t }
      (** [vv] is the version the coordinator stamped — clients thread
          it into a later overwrite to supersede their own write. *)
  | Remove of { key : Key.t; depth : int; vv : Vv.t }
  | Remove_ack of { removed : bool }
  | Join of { node : int; id : Key.t }
  | Join_ack of { members : (int * Key.t) list }
  | Probe
  | Probe_ack of { node : int; epoch : int }
  | Error of { code : int; message : string }
  | Sync_digests of { lo : Key.t; hi : Key.t; prefix : int; bits : int }
      (** Anti-entropy probe: digest the ([prefix], [bits]) bucket of
          your entries in ring range [(lo, hi]]. *)
  | Sync_digests_ack of { children : (int * int) array }
      (** 16 child buckets as (CRC-32C sum, entry count) pairs. *)
  | Sync_keys of { lo : Key.t; hi : Key.t; prefix : int; bits : int }
      (** Leaf exchange: list the bucket's (key, version, tombstone)
          entries. *)
  | Sync_keys_ack of { items : (Key.t * Vv.t * bool) list }
  | Fetch of { key : Key.t }
      (** Versioned read of one local entry (repair pull / quorum
          sub-read); unlike [Get] it never redirects and returns the
          vector. *)
  | Fetch_ack of { vv : Vv.t; deleted : bool; data : string option }
      (** [data = None] with [vv] empty: entry unknown. *)
  | Push of { key : Key.t; vv : Vv.t; deleted : bool; data : string }
      (** Store this versioned copy if it does not lose to yours
          (repair push / read-repair). *)
  | Push_ack of { stored : bool }
  | Get_q of { key : Key.t; q : int }
      (** Quorum read: the owner answers from [q] replicas (itself
          plus [q-1] successors), returns the dominating copy and
          read-repairs stale replicas. *)

val vv_empty : Vv.t
(** Convenience re-export of {!D2_sync.Version_vector.empty} for
    callers that send unstamped writes. *)

val is_request : msg -> bool
(** Requests expect a reply; everything else is a reply. *)

val frame_length : msg -> int
(** Exact encoded size of the frame carrying [msg], prefix included. *)

val encode_into : Bytes.t -> off:int -> req:int -> msg -> int
(** Write the frame at [off]; returns the number of bytes written
    (= {!frame_length}).
    @raise Invalid_argument if the buffer is too small, the request id
    is outside u32, or the message violates a size cap. *)

val encode : req:int -> msg -> Bytes.t
(** Fresh-buffer convenience over {!encode_into}. *)

type error =
  | Short  (** not enough bytes yet — read more and retry *)
  | Malformed of string  (** protocol violation — drop the connection *)

val decode : Bytes.t -> off:int -> len:int -> (int * msg * int, error) result
(** [decode buf ~off ~len] parses one frame from [buf.[off .. off+len-1]];
    [Ok (req, msg, consumed)] on success.  Never raises, never reads
    outside the given window. *)

(** {1 Stream reassembly}

    A per-connection buffer that turns a byte stream back into frames.
    The transport reads {e directly into} the reader's buffer
    ({!reserve} / {!commit} expose the writable region, so bytes go
    from the socket into the decode buffer with no intermediate copy),
    then {!next} yields decoded messages. *)

module Reader : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] (default 4096, clamped up to {!max_frame}) is the
      steady-state buffer size — size it to the transport's read chunk
      so draining a batch does not shrink below what the next read
      will reserve anyway. *)

  val reserve : t -> int -> Bytes.t * int
  (** [reserve r n] grows the buffer as needed and returns [(buf, off)]
      with at least [n] writable bytes at [off]. *)

  val commit : t -> int -> unit
  (** Declare that [n] bytes were written at the reserved offset. *)

  val feed : t -> Bytes.t -> off:int -> len:int -> unit
  (** Copying convenience: append bytes (for transports that already
      own a buffer). *)

  val next : t -> [ `Msg of int * msg | `Awaiting | `Corrupt of string ]
  (** Pop the next complete frame, if any.  After [`Corrupt] the
      stream is unrecoverable and the connection should be closed. *)

  val pending_bytes : t -> int

  val capacity : t -> int
  (** Current backing-buffer size.  Grows to hold a pipelined burst,
      then halves back toward the creation capacity (at least
      {!max_frame}) each time the stream drains — it does not hold
      the high-water mark forever. *)
end
