(** One connection of the NDJSON prediction service.

    A session is one connection of a {!Serve.t}: it owns one side of a
    byte-stream conversation and runs it as one loop on the thread
    that calls {!run}: wait for input (with a 0.1 s timeout, so
    {!Serve.stopping} is noticed), read, reassemble the chunk into
    request lines ({!Framing}, at the core's [max_line_bytes]), and
    answer each line in order — per-session admission (a token-bucket
    request rate) first, then the core's answer ({!Serve.handle_line},
    or {!Serve.rate_limited} and {!Serve.handle_oversized}), printed
    by {!Serve.print_reply} into the session's one reply buffer, then
    the write.  A reply is printed once, not built as a string and
    copied.  A request crosses no queue, thread or domain between its
    read and its reply.

    Backpressure: every line of a read is answered, in order, before
    the session reads again, so a client that pipelines faster than
    the session answers is held back by its own unread replies (the
    pipe or socket fills), not refused.  A session holds at most one
    64 KiB read, one partial line of up to [max_line_bytes] and a reply
    buffer that it keeps at no more than 64 KiB between replies.

    The transport is three functions over bytes, and the descriptors
    under it stay the caller's.  {!Net.run_stdio} serves stdio as one
    session and {!Net.run} one per TCP connection, both over
    {!fd_transport}'s reads and writes.

    Failure model: a write that finds the peer gone ({!Peer_closed},
    [EPIPE]/[ECONNRESET] mapped by the transport) stops *this* session
    only — it is counted into the core's [io.epipe], the rest of the
    read is dropped, and [run] returns normally.  Nothing here ever
    raises out of {!run}.  The session keeps no counters of its own:
    its bytes, dead peers and rate-limited lines are tallied in the
    core. *)

(** Raised by [transport.write] when the peer has closed the
    connection; the transport must map its I/O errors ([EPIPE],
    [ECONNRESET]) to this. *)
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
}

(** [fd_transport fd] — a transport over a connected socket or any
    stream descriptor: [ready] waits with [select], reads map
    reset-style errors to end of stream, writes map
    [EPIPE]/[ECONNRESET] to {!Peer_closed}.  The descriptor stays the
    caller's to close. *)
val fd_transport : Unix.file_descr -> transport

type t

(** [create ?rate core transport] — a fresh session of [core].

    [rate] > 0 arms a token-bucket admission limit of [rate] requests
    per second with a burst capacity of [max 1. rate]; refused lines
    are answered with {!Serve.rate_limited}.
    @raise Invalid_argument if [rate] is negative or not finite. *)
val create : ?rate:float -> Serve.t -> transport -> t

(** Drive the session to completion on the calling thread.  Returns
    after end of stream, {!Serve.stopping}, or a closed peer; every
    line already read is answered first (graceful drain).  A stop is
    polled between reads: an idle session notices it within about
    0.1 s, a busy one once it has answered the read in hand.  Never
    raises. *)
val run : t -> unit
