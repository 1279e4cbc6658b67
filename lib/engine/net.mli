(** The transports of the NDJSON prediction service: stdio and
    multi-client TCP.  Each connection is one {!Session} of a shared
    {!Serve.t}: every client shares the engine, memo cache and
    statistics, each request is predicted on its connection's thread,
    and framing, admission and write failures stay per connection.

    {!run_stdio} serves stdio as one session on the calling thread.
    {!run} listens on [cfg.host:cfg.port] and serves each accepted
    connection as one session on one thread.  Its threads run on
    {!Serve.workers} serving domains: the calling domain, which also
    runs the accept loop, and [workers - 1] domains spawned when the
    listener is up, each with a 128k-word minor heap (half the
    default).  Each accepted connection goes to the serving domain
    with the fewest open connections, ties to the lowest index (the
    calling domain is index 0), and stays there until it closes.

    - at most [max_conns] connections are served concurrently (the
      service's [connections.active] count); connections over the
      limit are answered with one ["retry_after"] line and closed,
      counted under [connections.rejected];
    - [conn_rate] > 0 arms a per-connection token bucket of that many
      requests/second; refused requests answer ["rate_limited"] with
      a [retry_after_ms] hint, counted under
      [connections.rate_limited];
    - every line a connection sends is answered, in order, before
      its session reads again, so a client that pipelines faster than
      it reads its replies is held back by its own socket, never
      stalling other clients;
    - a client that disconnects mid-write ([EPIPE]/[ECONNRESET])
      kills only its own session, counted under [io.epipe];
    - SIGINT/SIGTERM (or {!Serve.request_shutdown}) stop the accept
      loop, drain every connection on every serving domain (requests
      already read are still answered, idle connections are closed
      within 0.1 s), join the spawned domains, and flush the final
      stats snapshot to stderr once.

    Connections are counted in the ["connections"] section of
    [{"cmd":"stats"}]: [accepted], [active], [rejected],
    [rate_limited], [bytes_in] and [bytes_out]. *)

type config = {
  host : string;      (** bind address, e.g. "127.0.0.1" or "0.0.0.0" *)
  port : int;         (** TCP port; [0] picks an ephemeral port *)
  max_conns : int;    (** concurrent-connection limit *)
  conn_rate : float;  (** per-connection requests/second; [0.] = off *)
}

(** [{host = "127.0.0.1"; port = 0; max_conns = 64; conn_rate = 0.}] *)
val default_config : config

(** [parse_endpoint "HOST:PORT"] splits at the last [':'] (so bare
    IPv6 textual addresses with an appended port parse), validating
    the port. *)
val parse_endpoint : string -> (string * int, string) result

(** [run ?signals ?announce t cfg] — bind, listen, and serve until
    shutdown.  [announce] (default ignore) receives the actually
    bound address and port once listening — the way callers learn the
    ephemeral port when [cfg.port = 0].  [signals] (default [true])
    installs {!Serve.install_signal_handlers}.  Returns after the
    graceful drain, with every spawned domain joined; does not call
    {!Serve.shutdown}.
    @raise Invalid_argument if [max_conns < 1], [conn_rate] is
    negative or not finite, or the port is out of range.
    @raise Failure if the address cannot be resolved or bound. *)
val run :
  ?signals:bool ->
  ?announce:(host:string -> port:int -> unit) ->
  Serve.t ->
  config ->
  unit

(** [run_stdio ?signals t ic oc] — one session over stdio on the
    calling thread, reading [ic]'s descriptor and writing [oc]'s
    directly (not through the channels' buffers), closing neither.
    Returns, having answered every line read and flushed final stats
    to stderr, after EOF, a stop (within about 0.1 s, even on an idle
    open pipe), or a reader that left (counted under [io.epipe]).
    [signals] as for {!run}; does not call {!Serve.shutdown}. *)
val run_stdio :
  ?signals:bool -> Serve.t -> in_channel -> out_channel -> unit
