(** Fault-tolerant NDJSON prediction service on top of {!Engine}.

    Wire protocol, version {!proto_version} (one JSON object per
    line; responses from {!run}/{!Net.run} carry ["proto"]):
    {v
    -> {"id":1,"arch":"SKL","mode":"auto","hex":"4801d8"}
    <- {"id":1,"cycles":..,"bottlenecks":[..],"values":{..},
        "fe_path":..,"proto":1}
    -> {"id":2,"asm":"add rax, rbx"}
    <- {"id":2,"cycles":..,...,"proto":1}
    -> {"id":3,"hex":"zz"}
    <- {"id":3,"error":{"kind":"bad_hex","msg":..,"pos":0},"proto":1}
    -> {"cmd":"stats"}
    <- {"id":null,"stats":{"requests":..,"errors":..,"cache":..,
                           "connections":..,"faults":..,
                           "limits":..,"latency_us":..,
                           "process":..},"proto":1}
    -> {"cmd":"version"}
    <- {"id":null,"version":{"proto":1,"name":"facile",..},"proto":1}
    v}

    [arch] defaults to "SKL", [mode] to "auto"; [id] is echoed
    verbatim (any JSON value, default null).  A request may carry
    ["proto"]: absent or [1] is accepted, anything else is rejected
    with ["bad_request"].  Unknown top-level request keys are rejected
    with a ["bad_request"] naming the offending key.  Error kinds are
    the {!Facile_x86.Err.kind} names (including ["too_large"] and
    ["timeout"]) plus ["bad_request"], ["rate_limited"] (a
    per-connection admission rate was exceeded; the error object
    carries a ["retry_after_ms"] hint of 50), and ["internal"] (the
    request raised — a bug or an injected fault).  Every line read is
    answered, in order; ["retry_after"] is only {!Net.run}'s refusal
    of a connection over its limit.

    Robustness model: each request is handled on the thread of the
    session that read it; decode + predict run inside a request
    boundary ({!Supervise.run}) that answers an escaped exception with
    ["internal"] for that request only; each request carries its own
    optional wall-clock deadline; input sizes are capped; the memo
    cache is a bounded LRU keyed on (µarch, requested mode, bytes), so
    a [hex] hit is answered without decoding the block, and answers
    exactly what the miss did; EOF/SIGINT/SIGTERM/EPIPE all answer what
    was read and flush a final stats snapshot ([{"final_stats":..}] on
    stderr) before returning.  A dead client stops only its own
    session, never the process.

    One [t] serves any number of concurrent transports: {!run} drives
    it over stdio, {!Net.run} over N TCP connections, and {!session}
    builds a {!Session.t} over any custom transport — all sharing the
    engine, memo cache, and statistics.  The engine runs on one domain
    and predicts each request on the thread of its session; {!run}
    serves on the calling thread, and {!Net.run} spreads its
    connections over {!workers} serving domains. *)

(** Version of the NDJSON wire protocol spoken by this build. *)
val proto_version : int

type limits = {
  max_line_bytes : int;   (** longest accepted request line *)
  max_input_bytes : int;  (** longest accepted hex/asm payload *)
  max_insts : int;        (** most instructions per block *)
}

val default_limits : limits

(** Full service configuration; {!default_config} is what
    [facile serve] runs with when no flag is given, and {!of_config}
    validates. *)
type config = {
  workers : int option;
      (** serving domains for {!Net.run}, the calling domain included;
          [None] = [Domain.recommended_domain_count ()].  The engine
          itself always has one domain, and stdio {!run} uses only the
          calling one. *)
  memoize : bool;            (** memoize predictions in a bounded LRU *)
  cache_cap : int option;
      (** LRU capacity; [None] = default.  The cache has [workers * 4]
          shards (see {!Engine.create}). *)
  deadline_ms : int option;  (** per-request budget; [None] = off *)
  flush_every : int option;
      (** invoke the persistence hook ({!set_persist}) after every
          [n] successful predictions; [None] = only at shutdown *)
  limits : limits;
}

(** [workers = None], memoization on, the default cache capacity, a
    2000 ms deadline, no periodic flush and {!default_limits}. *)
val default_config : config

type t

(** [of_config c] starts the service state, including its engine, a
    single-domain {!Engine.t} that spawns no domain.
    [c.deadline_ms = Some 0] means an already-spent budget — every
    predict request answers "timeout" — which the chaos harness uses.
    @raise Invalid_argument on non-positive [workers] or limits, or a
    negative [deadline_ms]. *)
val of_config : config -> t

(** The engine behind this service (the CLI uses it to warm the memo
    cache from a persistent store and to dump it back). *)
val engine : t -> Engine.t

(** The serving-domain count: [config.workers], or the runtime's
    recommended domain count.  Reported as ["workers"] by
    [{"cmd":"version"}] and in the stats. *)
val workers : t -> int

(** [set_persist t f] installs the persistence hook: [f] is invoked
    under the service's persistence lock after every
    [config.flush_every] successful predictions and once more at the
    start of {!shutdown}.  The hook is supplied from outside (the CLI
    wires it to a {!Facile_store} writer) so this module stays
    store-agnostic.  A raising hook is counted in the stats ["store"]
    section as [persist_errors], never propagated. *)
val set_persist : t -> (unit -> unit) -> unit

(** Shut the engine down, running the persistence hook first
    (flush-on-graceful-shutdown — this covers the stdio, TCP, and
    signal paths, which all funnel through here). *)
val shutdown : t -> unit

(** Ask every serving loop on this [t] to drain and return (what the
    SIGINT/SIGTERM handlers call). *)
val request_shutdown : t -> unit

(** [true] once {!request_shutdown} (or a handled signal) asked this
    service to stop; accept loops and sessions poll it. *)
val stopping : t -> bool

(** [handle_line t line] processes one request line and returns the
    response object (without the wire-layer ["proto"] tag — transports
    add it via {!with_proto}). Never raises. *)
val handle_line : t -> string -> Facile_obs.Json.t

(** Append [("proto", proto_version)] to a response object that does
    not already carry it; what every transport applies when
    serializing to the wire. *)
val with_proto : Facile_obs.Json.t -> Facile_obs.Json.t

(** [print_reply buf j] — appends [j]'s wire line, {!with_proto}
    applied, without the newline: what a {!session} prints into its
    reply buffer. *)
val print_reply : Buffer.t -> Facile_obs.Json.t -> unit

(** The service-level statistics snapshot served for
    [{"cmd":"stats"}]: request counts (total/predicted/per-arch),
    error counts by kind, cache hits/misses/evictions, connection counts
    (accepted/active/rejected/rate_limited/bytes in and out),
    per-point fault-injection counters, I/O (EPIPE) counts, the
    configured
    limits, p50/p95/p99 request latency, and the global span registry
    attributing time to model components. *)
val stats_json : t -> Facile_obs.Json.t

(** {2 Transport plumbing}

    Building blocks for serving loops ({!run} here, {!Net.run} for
    TCP): connection accounting surfaced in the stats ["connections"]
    section, and session construction over an arbitrary transport. *)

val conn_opened : t -> unit
val conn_closed : t -> unit

(** Connections opened and not yet closed: the ["active"] count,
    which {!Net.run} holds to its connection limit. *)
val active_conns : t -> int

(** Count a connection refused at the connection limit. *)
val conn_rejected : t -> unit

(** [session t transport] — a {!Session.t} speaking this service's
    protocol over [transport]: every line is answered, in order,
    responses carry ["proto"], lines over [limits.max_line_bytes]
    answer ["too_large"], and [rate] (requests/second; absent or [0.]
    is off) arms a per-session token bucket
    holding up to [max 1. rate] requests, answering ["rate_limited"].
    Bytes and EPIPEs are accounted into [t]'s shared stats;
    [on_peer_gone] is the session's policy hook (stdio passes "stop the
    whole service", TCP connections pass nothing). *)
val session :
  ?rate:float -> ?on_peer_gone:(unit -> unit) -> t -> Session.transport ->
  Session.t

(** Install the serving signal discipline on the process: ignore
    SIGPIPE, and turn SIGINT/SIGTERM into {!request_shutdown}. *)
val install_signal_handlers : t -> unit

(** Run the persistence hook (if any), then emit the
    [{"final_stats":..}] snapshot on stderr — so the snapshot's store
    counters include the end-of-service flush. *)
val print_final_stats : t -> unit

(** [run ?signals t ic oc] — one stdio NDJSON session, run on the
    calling thread: it reads [ic]'s file descriptor directly (not
    through the channel's buffer) and answers on [oc].  Returns after
    EOF, {!request_shutdown}, SIGINT/SIGTERM (within about 0.1 s, even
    while the client stays connected and idle), or EPIPE, answering
    every line already read and flushing final stats to stderr.
    [signals] (default [true]) installs the SIGPIPE-ignore and
    SIGINT/SIGTERM handlers; pass [false] in embedded/test use. *)
val run : ?signals:bool -> t -> in_channel -> out_channel -> unit
