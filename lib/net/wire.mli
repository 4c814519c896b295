(** Wire protocol: length-prefixed binary frames for the D2 RPCs.

    Every message travels as one frame:

    {v
      bytes 0..3   u32 big-endian frame length L (= 5 + body length)
      bytes 4..7   u32 big-endian request id (echoed by the reply)
      byte  8      message tag
      bytes 9..    body (fixed layout per tag; keys are 64 raw bytes,
                   node handles u32, versions u64 stamp + u32 node,
                   block payloads u32 length + bytes)
    v}

    Each frame is stated once per direction: {!write} walks it field
    by field into a byte buffer, checking every field's range or cap as
    it writes, and {!decode} walks the same layout back, checking the
    same bounds.  The decoder is total: it classifies any byte string
    as a message, a {!Short} prefix (wait for more bytes), or
    {!Malformed} (protocol violation — drop the connection); it never
    raises.  Payloads are capped at {!max_payload} (the 8 KB D2-Store
    block), frames at {!max_frame}, so a malicious length field cannot
    force an allocation; an anti-entropy probe must name a bucket the
    digest trie can address ([Sync_digests]: [bits + 4 <= 28];
    [Sync_keys]: [bits <= 28]; both: [prefix < 2^bits]), so a peer
    cannot make the node that serves it fail.

    Block payloads are {!D2_util.Slice.t}s.  {!decode} does not copy
    them: a decoded payload is a window of the buffer it decoded from,
    valid only until that buffer is next written — for a connection,
    until the dispatch callback that received the message returns
    (see {!Reader.next}).  A receiver that keeps the bytes copies them
    (the per-key table does, into the store; the client does, for its
    caller).  This is safe because every reply and forward encodes
    synchronously: {!write} has copied a payload into the output
    buffer before the callback returns. *)

module Key = D2_keyspace.Key
module Version = D2_sync.Version

val protocol_version : int
(** Frame-set revision, exchanged in the transport hello; peers with a
    different version are rejected at connect time with a clear error
    instead of failing mid-stream on an unknown tag. *)

val max_payload : int
(** Largest block payload a frame may carry (8192, {!D2_trace.Op.block_size}). *)

val max_members : int
(** Largest membership list a [Join_ack] may carry (4096 nodes). *)

val max_sync_items : int
(** Largest entry list a [Sync_keys_ack] may carry:
    {!D2_sync.Digest.max_items} (256), the cap [Digest.items] applies. *)

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
  | Found of { data : D2_util.Slice.t }
  | Missing
  | Put of {
      key : Key.t;
      depth : int;
      version : Version.t;
      data : D2_util.Slice.t;
    }
      (** [depth > 0]: the receiver coordinates and fans the block out
          to its [depth] follow-up replica holders; [depth = 0]: store
          locally only (a fan-out copy).  A client sends
          {!Version.zero} and the coordinator stamps the write; fan-out
          copies carry the stamped version so every replica records the
          same one. *)
  | Put_ack of { copies : int }
      (** [copies]: the replicas holding the write, the coordinator
          included; a fan-out copy's ack says 1. *)
  | Remove of { key : Key.t; depth : int; version : Version.t }
  | Remove_ack of { copies : int; removed : bool }
      (** [copies] as for [Put_ack]; [removed]: the tombstone dropped a
          live block. *)
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
  | Sync_keys_ack of { items : (Key.t * Version.t * bool) list }
  | Fetch of { key : Key.t; have : Version.t }
      (** Versioned read of one local entry (repair pull / quorum
          sub-read); unlike [Get] it never redirects and returns the
          version.  [have] is the reader's own version of the key: a
          stamped [have] at least the entry's is answered with the
          version only, no payload. *)
  | Fetch_ack of {
      version : Version.t;
      deleted : bool;
      data : D2_util.Slice.t option;
    }
      (** [data = None] with [version] zero: entry unknown; with
          [version] covered by the request's [have]: a version-only
          answer. *)
  | Push of {
      key : Key.t;
      version : Version.t;
      deleted : bool;
      data : D2_util.Slice.t;
    }
      (** Store this versioned copy if its version is larger than
          yours (repair push / read-repair). *)
  | Push_ack of { stored : bool }
  | Get_q of { key : Key.t; q : int }
      (** Quorum read: the owner answers from [q] replicas (itself
          plus [q-1] successors), returns the newest copy and
          read-repairs stale replicas. *)

val is_request : msg -> bool
(** Requests expect a reply; everything else is a reply. *)

val write : Transport.Bytebuf.t -> req:int -> msg -> int
(** Append the frame carrying [msg] at the buffer's write cursor (a
    link's output buffer, where frames coalesce into one send);
    returns its length, prefix included.
    @raise Invalid_argument if the request id is outside u32 or a
    field breaks its range or cap.  The buffer is then left exactly as
    it was: the frames before it stay intact. *)

val encode : req:int -> msg -> Bytes.t
(** The frame in a fresh buffer.  Raises as {!write} does. *)

val encode_into : Bytes.t -> off:int -> req:int -> msg -> int
(** Copy the frame into [buf] at [off]; returns its length.
    @raise Invalid_argument if the buffer is too small, or as {!write}
    does. *)

val frame_length : msg -> int
(** Encoded size of the frame carrying [msg], prefix included. *)

type error =
  | Short  (** not enough bytes yet — read more and retry *)
  | Malformed of string  (** protocol violation — drop the connection *)

val decode : Bytes.t -> off:int -> len:int -> (int * msg * int, error) result
(** [decode buf ~off ~len] parses one frame from [buf.[off .. off+len-1]];
    [Ok (req, msg, consumed)] on success.  Never raises, never reads
    outside the given window. *)

(** {1 Stream reassembly}

    A connection's receive buffer turns the byte stream back into
    frames.  The transport reads {e directly into} it
    ({!Transport.Bytebuf.reserve} / {!Transport.Bytebuf.commit}), so
    bytes go from the socket into the decode buffer with no
    intermediate copy; then {!Reader.next} yields decoded messages. *)

module Reader : sig
  type t = Transport.Bytebuf.t

  val create : unit -> t
  (** A buffer holding {!max_frame} bytes, so a single frame in
      progress never makes it grow.  A pipelined burst can; once the
      stream drains, each drained {!next} halves it back toward
      {!max_frame}, so it does not hold the high-water mark forever. *)

  val next : t -> [ `Msg of int * msg | `Awaiting | `Corrupt of string ]
  (** Pop the next complete frame, if any.  On [`Awaiting] the partial
      frame has moved to the front of the buffer.  After [`Corrupt]
      the stream is unrecoverable and the connection should be
      closed.  A [`Msg]'s payload borrows the reader's buffer: it is
      valid until the next [next] or the next write into the reader,
      whichever comes first. *)
end
