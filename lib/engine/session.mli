(** Transport-agnostic NDJSON protocol session.

    A session owns one side of a byte-stream conversation and runs it
    as one loop on the thread that calls {!run}: wait for input (with
    a 0.1 s timeout, so stop flags are noticed), read, reassemble the
    chunk into request lines ({!Framing}), and answer each line in
    order — per-session admission (a token-bucket request rate) first,
    then the protocol callback, then the write.  A request crosses no
    queue, thread or domain between its read and its reply.

    Backpressure: every line of a read is answered, in order, before
    the session reads again, so a client that pipelines faster than
    the session answers is held back by its own unread replies (the
    pipe or socket fills), not refused.  A session holds at most one
    64 KiB read, one partial line of up to [max_line_bytes] and a reply
    buffer that it keeps at no more than 64 KiB between replies.

    The session knows nothing about sockets, pipes, or the prediction
    protocol: the transport is four functions over bytes, and the
    protocol is three callbacks that print a line's response into the
    session's one reply buffer, which the transport then writes: a
    reply is printed once, not built as a string and copied.  The
    stdio serving loop ({!Serve.run}) and every TCP connection
    ({!Net.run}) are the same [Session.run] over different transports
    against one shared {!Serve.t} core.

    Failure model: a write that finds the peer gone ({!Peer_closed},
    [EPIPE]/[ECONNRESET] mapped by the transport) stops *this* session
    only — it is reported to the sink's [on_epipe], the optional
    [on_peer_gone] policy hook runs, the rest of the read is dropped,
    and [run] returns normally.  Nothing here ever raises out of
    {!run}.  The session keeps no counters of its own: rate-limited
    lines reach their callback, bytes and dead peers the sink, and the
    serving core ({!Serve}) tallies them. *)

(** Raised by [transport.write] when the peer has closed the
    connection; the transport must map its I/O errors ([EPIPE],
    [ECONNRESET], [Sys_error] on a broken pipe) to this. *)
exception Peer_closed

type transport = {
  ready : float -> bool;
      (** [ready s] waits up to [s] seconds for input; [true] when a
          [read] would not block (data or end of stream).  An
          interrupted wait returns [false]. *)
  read : bytes -> int -> int -> int;
      (** [read buf off len] — partial read; [0] means end of stream
          (transports map connection-reset errors on the read side to
          end-of-stream too). *)
  write : Buffer.t -> unit;
      (** Write the buffer's contents: one complete response line and
          its ['\n'].  The buffer is the session's and is reused for
          the next line.  Raises {!Peer_closed} when the peer went
          away. *)
  close : unit -> unit;
      (** Release the underlying channel; called once when {!run}
          finishes.  Must not raise. *)
}

(** [fd_transport fd] — a transport over a connected socket or any
    stream descriptor: [ready] waits with [select], reads map
    reset-style errors to end of stream, writes map
    [EPIPE]/[ECONNRESET] to {!Peer_closed}, and close shuts the socket
    down and closes it. *)
val fd_transport : Unix.file_descr -> transport

(** The protocol half, supplied by the serving core.  Every callback
    appends the complete response line (without trailing newline) to
    the buffer it is given, which is empty on entry. *)
type callbacks = {
  on_line : Buffer.t -> string -> unit;  (** a complete request line *)
  on_oversized : Buffer.t -> int -> unit;  (** a discarded over-cap line *)
  on_rate_limited : Buffer.t -> string -> unit;
      (** admission rate exceeded *)
}

(** Live accounting hooks for aggregating into shared service stats,
    all called from the session's thread. *)
type sink = {
  on_bytes_in : int -> unit;   (** raw bytes read, including newlines *)
  on_bytes_out : int -> unit;  (** raw bytes written, including newlines *)
  on_epipe : unit -> unit;     (** a write found the peer gone *)
}

type t

(** [create ~max_line_bytes callbacks transport] — a fresh session.

    [rate] > 0 arms a token-bucket admission limit of [rate] requests
    per second with a burst capacity of [max 1. rate]; refused lines
    are answered with [on_rate_limited].  [should_stop]
    is polled between reads so a process-wide shutdown flag also stops
    the session.  [on_peer_gone] runs once if a write finds the peer
    closed — transport policy like "stdio client vanished: stop the
    whole process" lives there.
    @raise Invalid_argument if [rate] is negative or not finite. *)
val create :
  ?rate:float ->
  ?should_stop:(unit -> bool) ->
  ?on_peer_gone:(unit -> unit) ->
  ?sink:sink ->
  max_line_bytes:int ->
  callbacks ->
  transport ->
  t

(** Drive the session to completion on the calling thread.  Returns
    after end of stream, [should_stop ()], or a closed peer; every
    line already read is answered first (graceful drain).  A stop is
    polled between reads: an idle session notices it within about
    0.1 s, a busy one once it has answered the read in hand.  Closes
    the transport.  Never raises. *)
val run : t -> unit

(** [true] once a write found the peer gone. *)
val stopped : t -> bool
