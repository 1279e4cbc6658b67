(** Fault-tolerant NDJSON prediction service on top of {!Engine}.

    Wire protocol, version {!proto_version} (one JSON object per
    line; responses on the wire carry ["proto"]):
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

    One [t] serves any number of connections, each a {!Session.t}
    ({!Net.run_stdio} for stdio, {!Net.run} for TCP connections on
    {!workers} serving domains), all sharing the engine, memo cache
    and statistics.  The engine itself runs on one domain. *)

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
          itself always has one domain, and {!Net.run_stdio} uses only
          the calling one. *)
  cache_cap : int option;
      (** LRU capacity; [None] = default.  The cache has [workers * 4]
          shards (see {!Engine.create}). *)
  deadline_ms : int option;  (** per-request budget; [None] = off *)
  flush_every : int option;
      (** invoke the persistence hook ({!set_persist}) after every
          [n] successful predictions; [None] = only at shutdown *)
  limits : limits;
}

(** [workers = None], the default cache capacity, a 2000 ms deadline,
    no periodic flush and {!default_limits}. *)
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
    response object (without the wire-layer ["proto"] tag —
    {!print_reply} adds it). Never raises. *)
val handle_line : t -> string -> Facile_obs.Json.t

(** [handle_oversized t len] — the answer to a line of [len] bytes
    that the session's framer discarded for being over
    [limits.max_line_bytes]: ["too_large"], counted and timed as
    {!handle_line} counts and times an oversized line. *)
val handle_oversized : t -> int -> Facile_obs.Json.t

(** [rate_limited t line] — the answer to a line refused by its
    session's token bucket: ["rate_limited"] with the line's id and a
    ["retry_after_ms"] hint of 50, counted under
    [connections.rate_limited]. *)
val rate_limited : t -> string -> Facile_obs.Json.t

(** Append [("proto", proto_version)] to a response object that does
    not already carry it; what {!print_reply} applies. *)
val with_proto : Facile_obs.Json.t -> Facile_obs.Json.t

(** [print_reply buf j] — appends [j]'s wire line, {!with_proto}
    applied, without the newline: what a {!Session} prints into its
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

(** {2 Connection plumbing}

    What {!Session} and {!Net} read from the core and count into its
    stats ["connections"] and ["io"] sections. *)

(** The request limits; a session frames lines at [max_line_bytes]. *)
val limits : t -> limits

val conn_opened : t -> unit
val conn_closed : t -> unit

(** Connections opened and not yet closed: the ["active"] count,
    which {!Net.run} holds to its connection limit. *)
val active_conns : t -> int

(** Count a connection refused at the connection limit. *)
val conn_rejected : t -> unit

(** Count bytes a session read or wrote, newlines included, and a
    write that found the peer gone. *)
val count_bytes_in : t -> int -> unit
val count_bytes_out : t -> int -> unit
val count_epipe : t -> unit

(** Install the serving signal discipline on the process: ignore
    SIGPIPE, and turn SIGINT/SIGTERM into {!request_shutdown}. *)
val install_signal_handlers : t -> unit

(** Run the persistence hook (if any), then emit the
    [{"final_stats":..}] snapshot on stderr — so the snapshot's store
    counters include the end-of-service flush. *)
val print_final_stats : t -> unit
