(* NDJSON prediction service core, shared by every connection: one
   JSON request object per line in, one JSON response object per line
   out.  The engine and its bounded LRU memo cache persist across
   requests and across *connections*, so a traffic-serving deployment
   pays decode+predict once per distinct block instead of a process
   start per request.  The engine runs on one domain: every request is
   predicted on its session's thread, and {!Net.run} spreads the
   sessions over [workers] serving domains.

   This module is the protocol core only: request parsing, admission
   limits, deadlines, the request boundary, response encoding, and the
   shared statistics.  A {!Session} is one connection of a [t]: it
   frames the bytes, answers each line through {!handle_line} (or
   {!handle_oversized} and {!rate_limited}), writes the reply, and
   counts its bytes and dead peers here.  {!Net.run_stdio} serves
   stdio as one such session and {!Net.run} one per TCP connection.
   Every request is handled on the thread of the session that read it.

   The memo cache is keyed on the request as sent: (µarch, requested
   mode, the bytes of its [hex]).  A [hex] request takes one pass over
   the cache.  A hit answers from the stored prediction and
   instruction count, without decoding or analysing the block; a miss
   decodes, analyses, checks the block against [--max-insts] and the
   deadline, and runs the model.  Either way the answer is the same,
   bit for bit, including "too_large" (from the stored count) and
   "timeout" (the deadline is checked before the lookup).  Fault
   points: a hit passes "predict" once and skips "decode"; a miss, and
   every [asm] request, passes "decode" and "predict" once each; every
   answered line passes "respond".  The robustness model (request
   boundary, deadlines, size limits, graceful shutdown) is serve.mli's. *)

open Facile_x86
open Facile_uarch
open Facile_core
module Json = Facile_obs.Json
module Obs = Facile_obs.Obs
module Clock = Facile_obs.Clock
module Sync = Facile_core.Sync

(* Version of the wire protocol.  Bump on any incompatible change to
   the request/response shapes; responses carry it as "proto" and
   {"cmd":"version"} reports it alongside build info. *)
let proto_version = 1

type limits = {
  max_line_bytes : int;
  max_input_bytes : int;
  max_insts : int;
}

let default_limits =
  { max_line_bytes = 1 lsl 20; (* 1 MiB: an adversarial line cannot OOM us *)
    max_input_bytes = 65536;
    max_insts = 4096 }

type config = {
  workers : int option;
  cache_cap : int option;
  deadline_ms : int option;
  flush_every : int option;
  limits : limits;
}

let default_config =
  { workers = None;
    cache_cap = None;
    deadline_ms = Some 2000;
    flush_every = None;
    limits = default_limits }

(* Connection-level accounting, shared by every transport against this
   core.  Atomics, not the stats mutex: these are bumped from N
   session threads on the byte-moving path. *)
type conns = {
  accepted : int Atomic.t;
  active : int Atomic.t;
  rejected : int Atomic.t;       (* refused at the connection limit *)
  rate_limited : int Atomic.t;   (* requests refused by a session bucket *)
  bytes_in : int Atomic.t;
  bytes_out : int Atomic.t;
}

type t = {
  engine : Engine.t;
  workers : int;                       (* serving domains for Net.run *)
  sup : Supervise.t;
  limits : limits;
  deadline_ns : int option;            (* per-request budget; None = off *)
  latency : Obs.Histogram.t;  (* per-line handling latency, ns *)
  (* request tallies: atomic accumulators (and lock-free counter maps),
     bumped from N session threads — no stats mutex on the serving
     path.  Each counter is exact and monotone;
     [stats_json] reads them one by one, not as one snapshot. *)
  by_arch : Obs.Cmap.t;                (* successful predictions per arch *)
  by_kind : Obs.Cmap.t;                (* error responses per kind *)
  total : int Atomic.t;                (* every line handled, incl. stats *)
  predicted : int Atomic.t;            (* successful predictions *)
  stats_served : int Atomic.t;
  version_served : int Atomic.t;
  errors : int Atomic.t;
  epipe : int Atomic.t;                (* writes that found the peer gone *)
  conns : conns;
  started_ns : int;
  stop : bool Atomic.t;                (* graceful-shutdown request *)
  (* Persistence hook (the CLI installs one that syncs the memo cache
     to a Facile_store writer; this module stays store-agnostic to
     avoid a dependency cycle).  Invoked under [persist_mu] after
     every [flush_every] successful predictions and once more at
     graceful shutdown. *)
  flush_every : int option;
  persist_mu : Mutex.t;
  mutable persist : (unit -> unit) option;
  mutable since_flush : int;
  mutable flushes : int;
  mutable persist_errors : int;
}

let of_config (c : config) =
  if c.limits.max_line_bytes < 1 || c.limits.max_input_bytes < 1
     || c.limits.max_insts < 1
  then invalid_arg "Serve.of_config: limits must be positive";
  (match c.flush_every with
   | Some n when n < 1 ->
     invalid_arg (Printf.sprintf "Serve.of_config: flush_every = %d" n)
   | _ -> ());
  let workers =
    match c.workers with
    | None -> max 1 (Domain.recommended_domain_count ())
    | Some n when n >= 1 -> n
    | Some n -> invalid_arg (Printf.sprintf "Serve.of_config: workers = %d" n)
  in
  (* no pool domains: nothing here calls [predict_batch], and the
     serving domains are {!Net.run}'s; the memo cache is sharded for
     them, as {!Engine.create} would for a pool of [workers] *)
  { engine =
      Engine.create ~workers:1 ?cache_cap:c.cache_cap
        ~cache_shards:(workers * 4) ();
    workers;
    sup = Supervise.create ();
    limits = c.limits;
    deadline_ns =
      Option.map (fun ms ->
          if ms < 0 then invalid_arg "Serve.of_config: deadline_ms < 0"
          else ms * 1_000_000)
        c.deadline_ms;
    latency = Obs.Histogram.create ();
    by_arch = Obs.Cmap.create ();
    by_kind = Obs.Cmap.create ();
    total = Atomic.make 0;
    predicted = Atomic.make 0;
    stats_served = Atomic.make 0;
    version_served = Atomic.make 0;
    errors = Atomic.make 0;
    epipe = Atomic.make 0;
    conns =
      { accepted = Atomic.make 0;
        active = Atomic.make 0;
        rejected = Atomic.make 0;
        rate_limited = Atomic.make 0;
        bytes_in = Atomic.make 0;
        bytes_out = Atomic.make 0 };
    started_ns = Clock.now_ns ();
    stop = Atomic.make false;
    flush_every = c.flush_every;
    persist_mu = Mutex.create ();
    persist = None;
    since_flush = 0;
    flushes = 0;
    persist_errors = 0 }

let engine t = t.engine
let workers t = t.workers

let set_persist t f =
  Sync.with_lock t.persist_mu (fun () -> t.persist <- Some f)

(* Run the persistence hook; a failing flush (disk full, injected
   fault) is counted, never propagated — serving keeps its answers
   even when it cannot keep its cache. *)
let run_persist t =
  Sync.with_lock t.persist_mu (fun () ->
      match t.persist with
      | None -> ()
      | Some f ->
        t.since_flush <- 0;
        (match f () with
         | () -> t.flushes <- t.flushes + 1
         | exception _ -> t.persist_errors <- t.persist_errors + 1))

(* Count one successful prediction towards the periodic flush. *)
let tick_persist t =
  match t.flush_every with
  | None -> ()
  | Some n ->
    let due =
      Sync.with_lock t.persist_mu (fun () ->
          t.since_flush <- t.since_flush + 1;
          t.since_flush >= n && t.persist <> None)
    in
    if due then run_persist t

let shutdown t =
  run_persist t;
  Engine.shutdown t.engine

let request_shutdown t = Atomic.set t.stop true
let stopping t = Atomic.get t.stop

let conn_opened t =
  Atomic.incr t.conns.accepted;
  Atomic.incr t.conns.active

let conn_closed t = Atomic.decr t.conns.active
let active_conns t = Atomic.get t.conns.active
let conn_rejected t = Atomic.incr t.conns.rejected

(* ----- responses ----- *)

(* Wire error kinds are the Err.t taxonomy plus three serving-layer
   kinds: "bad_request" (the line is not a valid request object),
   "rate_limited" (the per-connection admission bucket is empty), and
   "internal" (the request raised — a bug or an injected fault).
   {!Net} refuses a connection over its limit with a fourth,
   "retry_after". *)
let error_response t ~id ~kind ?pos ?(extra = []) msg =
  Atomic.incr t.errors;
  Obs.Cmap.bump t.by_kind kind;
  Json.Obj
    [ "id", id;
      "error",
      Json.Obj
        ([ "kind", Json.Str kind; "msg", Json.Str msg ]
         @ (match pos with Some p -> [ "pos", Json.Int p ] | None -> [])
         @ extra) ]

let err_response t ~id (e : Err.t) =
  error_response t ~id ~kind:(Err.kind_name e.Err.kind) ?pos:e.Err.pos
    e.Err.msg

(* The hint a rate-limited request carries. *)
let retry_after_ms = 50

(* Wire responses carry the protocol version; appended last so the
   leading fields (id, cycles/error/stats) keep their shape. *)
let with_proto = function
  | Json.Obj kvs when not (List.mem_assoc "proto" kvs) ->
    Json.Obj (kvs @ [ "proto", Json.Int proto_version ])
  | j -> j

let version_json t =
  Json.Obj
    [ "proto", Json.Int proto_version;
      "name", Json.Str "facile";
      "version", Json.Str "1.0";
      "ocaml", Json.Str Sys.ocaml_version;
      "os", Json.Str Sys.os_type;
      "word_size", Json.Int Sys.word_size;
      "workers", Json.Int t.workers;
      "arches",
      Json.Arr
        (List.map (fun (c : Config.t) -> Json.Str c.Config.abbrev) Config.all) ]

let stats_json t =
  let c = Engine.cache_stats t.engine in
  let lookups = c.Engine.hits + c.Engine.misses in
  let hit_rate =
    if lookups = 0 then 0.0
    else float_of_int c.Engine.hits /. float_of_int lookups
  in
  let sorted cmap =
    List.map (fun (k, v) -> (k, Json.Int v)) (Obs.Cmap.bindings cmap)
  in
  let q p = Clock.ns_to_us (int_of_float (Obs.Histogram.quantile t.latency p)) in
  let store_enabled, flushes, persist_errors =
    Sync.with_lock t.persist_mu (fun () ->
        (t.persist <> None, t.flushes, t.persist_errors))
  in
  Json.Obj
        [ "uptime_s",
          Json.Float (Clock.ns_to_s (Clock.now_ns () - t.started_ns));
          "workers", Json.Int t.workers;
          "requests",
          Json.Obj
            [ "total", Json.Int (Atomic.get t.total);
              "predicted", Json.Int (Atomic.get t.predicted);
              "stats", Json.Int (Atomic.get t.stats_served);
              "version", Json.Int (Atomic.get t.version_served);
              "by_arch", Json.Obj (sorted t.by_arch) ];
          "errors",
          Json.Obj
            [ "total", Json.Int (Atomic.get t.errors);
              "by_kind", Json.Obj (sorted t.by_kind) ];
          "cache",
          Json.Obj
            [ "hits", Json.Int c.Engine.hits;
              "misses", Json.Int c.Engine.misses;
              "hit_rate", Json.Float hit_rate;
              "coalesced", Json.Int c.Engine.coalesced;
              "evictions", Json.Int c.Engine.evictions;
              "entries", Json.Int c.Engine.entries;
              "capacity", Json.Int c.Engine.capacity;
              "shards", Json.Int c.Engine.shards ];
          "connections",
          Json.Obj
            [ "accepted", Json.Int (Atomic.get t.conns.accepted);
              "active", Json.Int (Atomic.get t.conns.active);
              "rejected", Json.Int (Atomic.get t.conns.rejected);
              "rate_limited", Json.Int (Atomic.get t.conns.rate_limited);
              "bytes_in", Json.Int (Atomic.get t.conns.bytes_in);
              "bytes_out", Json.Int (Atomic.get t.conns.bytes_out) ];
          "faults",
          Json.Obj
            (List.map
               (fun (p, (injected, hits)) ->
                 ( p,
                   Json.Obj
                     [ "injected", Json.Int injected;
                       "hits", Json.Int hits ] ))
               (Fault.snapshot ()));
          "io", Json.Obj [ "epipe", Json.Int (Atomic.get t.epipe) ];
          "store",
          Json.Obj
            [ "enabled", Json.Bool store_enabled;
              "flush_every",
              (match t.flush_every with
               | None -> Json.Null
               | Some n -> Json.Int n);
              "flushes", Json.Int flushes;
              "persist_errors", Json.Int persist_errors ];
          "limits",
          Json.Obj
            [ "max_line_bytes", Json.Int t.limits.max_line_bytes;
              "max_input_bytes", Json.Int t.limits.max_input_bytes;
              "max_insts", Json.Int t.limits.max_insts;
              "deadline_ms",
              (match t.deadline_ns with
               | None -> Json.Null
               | Some ns -> Json.Int (ns / 1_000_000)) ];
          "latency_us",
          Json.Obj
            [ "count", Json.Int (Obs.Histogram.count t.latency);
              "mean", Json.Float (Clock.ns_to_us
                                    (int_of_float
                                       (Obs.Histogram.mean_ns t.latency)));
              "p50", Json.Float (q 0.50);
              "p95", Json.Float (q 0.95);
              "p99", Json.Float (q 0.99) ];
          (* global span/counter registry: attributes time to the
             model components (model.predec, model.dec, model.ports,
             model.precedence) and the engine *)
          "process", Obs.snapshot () ]

(* ----- request handling ----- *)

let timeout_err t =
  Err.v Err.Timeout
    (Printf.sprintf "request exceeded its %dms deadline"
       (match t.deadline_ns with Some ns -> ns / 1_000_000 | None -> 0))

let too_many_insts t n =
  Err.v Err.Too_large
    (Printf.sprintf "block has %d instructions, limit is %d" n
       t.limits.max_insts)

(* A typed refusal raised out of the cache's compute closure, so that
   nothing is cached for it. *)
exception Refused of Err.t

let refuse = function Ok v -> v | Error e -> raise (Refused e)

(* A request's deadline is an instant of its own, [max_int] when the
   service has no budget: concurrent requests cannot arm or disarm it. *)
let deadline_of t =
  match t.deadline_ns with
  | Some ns -> Clock.now_ns () + ns
  | None -> max_int

let check_time t deadline =
  if deadline < max_int && Clock.now_ns () >= deadline then
    raise (Refused (timeout_err t))

let check_size t n =
  if n > t.limits.max_insts then raise (Refused (too_many_insts t n))

(* the cold path's checks between analysing a block and the model *)
let admit t deadline block =
  check_size t (Block.instruction_count block);
  check_time t deadline;
  block

(* The heavy half of a request, inside the request boundary.  Injected
   faults and real bugs raise.  The deadline is checked before the
   cache lookup and, on a miss, again before predicting; a spent one
   answers timeout.  A [hex] request takes one pass over the memo
   cache keyed on its bytes: a hit answers from the stored prediction
   and instruction count without decoding, and only a miss decodes,
   analyses and checks the block before the model runs.  [asm]
   requests are analysed first, since their bytes come from
   encoding. *)
let compute t cfg ~mode ~hex ~asm =
  let deadline = deadline_of t in
  match
    check_time t deadline;
    match hex, asm with
    | Some h, _ ->
      let code = refuse (Hex.decode h) in
      let n, p =
        Engine.predict_code t.engine cfg ~mode code ~analyze:(fun () ->
            Fault.point "decode";
            admit t deadline (refuse (Block.analyze cfg (`Code code))))
      in
      (* a hit skipped [admit]: its stored count meets this server's
         limit here, exactly as the cold path would have *)
      check_size t n;
      p
    | None, Some a ->
      Fault.point "decode";
      let block = refuse (Block.analyze cfg (`Asm a)) in
      Engine.predict t.engine ~mode (admit t deadline block)
    | None, None -> assert false
  with
  | p -> Ok p
  | exception Refused e -> Error e

(* Every key a request object may carry; anything else is rejected
   with a bad_request naming the offending key, so protocol typos and
   version skew fail loudly instead of being silently ignored. *)
let allowed_keys = [ "id"; "proto"; "cmd"; "arch"; "mode"; "hex"; "asm" ]

let handle_request t (req : Json.t) : Json.t =
  let id = Option.value ~default:Json.Null (Json.member "id" req) in
  match req with
  | Json.Obj kvs ->
    (match
       List.find_opt (fun (k, _) -> not (List.mem k allowed_keys)) kvs
     with
     | Some (k, _) ->
       error_response t ~id ~kind:"bad_request"
         (Printf.sprintf "unknown request field %S (expected %s)" k
            (String.concat "|" allowed_keys))
     | None ->
       (match Json.member "proto" req with
        | Some p when p <> Json.Int proto_version ->
          error_response t ~id ~kind:"bad_request"
            (Printf.sprintf
               "unsupported proto %s (this server speaks proto %d)"
               (Json.to_string p) proto_version)
        | _ ->
          (match Json.member "cmd" req with
           | Some (Json.Str "stats") ->
             Atomic.incr t.stats_served;
             Json.Obj [ "id", id; "stats", stats_json t ]
           | Some (Json.Str "version") ->
             Atomic.incr t.version_served;
             Json.Obj [ "id", id; "version", version_json t ]
           | Some c ->
             error_response t ~id ~kind:"bad_request"
               (Printf.sprintf
                  "unknown cmd %s (expected \"stats\"|\"version\")"
                  (Json.to_string c))
           | None ->
             let field name =
               match Json.member name req with
               | Some (Json.Str s) -> Ok (Some s)
               | Some _ ->
                 Error
                   (Printf.sprintf "field %S must be a string" name)
               | None -> Ok None
             in
             (match field "arch", field "mode", field "hex", field "asm" with
              | Error m, _, _, _ | _, Error m, _, _ | _, _, Error m, _
              | _, _, _, Error m ->
                error_response t ~id ~kind:"bad_request" m
              | Ok _, Ok _, Ok None, Ok None ->
                error_response t ~id ~kind:"bad_request"
                  "request needs a \"hex\" or \"asm\" field"
              | Ok arch, Ok mode, Ok hex, Ok asm ->
                let arch = Option.value ~default:"SKL" arch in
                let input_bytes =
                  String.length (Option.value ~default:"" hex)
                  + String.length (Option.value ~default:"" asm)
                in
                if input_bytes > t.limits.max_input_bytes then
                  err_response t ~id
                    (Err.v Err.Too_large
                       (Printf.sprintf
                          "input of %d bytes exceeds the %d-byte limit"
                          input_bytes t.limits.max_input_bytes))
                else begin
                  match
                    ( Config.of_abbrev arch,
                      match mode with
                      | None -> Ok `Auto
                      | Some m -> Model.notion_of_string m )
                  with
                  | None, _ ->
                    err_response t ~id
                      (Err.v Err.Unknown_arch
                         ("unknown microarchitecture: " ^ arch))
                  | Some _, Error e -> err_response t ~id e
                  | Some cfg, Ok mode ->
                    (match
                       Supervise.run t.sup (fun () ->
                           compute t cfg ~mode ~hex ~asm)
                     with
                     | Ok (Error e) -> err_response t ~id e
                     | Error (Fault.Injected p) ->
                       error_response t ~id ~kind:"internal"
                         (Printf.sprintf "injected fault at %s" p)
                     | Error e ->
                       error_response t ~id ~kind:"internal"
                         (Printexc.to_string e)
                     | Ok (Ok p) ->
                       Atomic.incr t.predicted;
                       Obs.Cmap.bump t.by_arch cfg.Config.abbrev;
                       tick_persist t;
                       (match Model.prediction_to_json p with
                        | Json.Obj fields -> Json.Obj (("id", id) :: fields)
                        | other -> Json.Obj [ "id", id; "prediction", other ]))
                end))))
  | _ ->
    error_response t ~id:Json.Null ~kind:"bad_request"
      "request must be a JSON object"

let line_too_large_err len cap =
  Err.v Err.Too_large
    (Printf.sprintf "request line of %d bytes exceeds the %d-byte limit" len
       cap)

let answer_line t line =
  Atomic.incr t.total;
  let resp =
    if String.length line > t.limits.max_line_bytes then
      err_response t ~id:Json.Null
        (line_too_large_err (String.length line) t.limits.max_line_bytes)
    else
      match Json.parse line with
      | Error m -> error_response t ~id:Json.Null ~kind:"bad_request" m
      | Ok req ->
        (match handle_request t req with
         | resp -> resp
         | exception e ->
           error_response t
             ~id:(Option.value ~default:Json.Null (Json.member "id" req))
             ~kind:"internal" (Printexc.to_string e))
  in
  (* the respond fault point models a failure while producing the
     answer: the response is replaced by a typed internal error, the
     loop survives *)
  match Fault.point "respond" with
  | () -> resp
  | exception Fault.Injected _ ->
    error_response t
      ~id:(Option.value ~default:Json.Null (Json.member "id" resp))
      ~kind:"internal" "injected fault at respond"

let answer_oversized t len =
  Atomic.incr t.total;
  err_response t ~id:Json.Null (line_too_large_err len t.limits.max_line_bytes)

(* [f t x] timed into the latency histogram with two clock reads, not
   a thunk; a raise is recorded too. *)
let timed t f x =
  let t0 = Clock.now_ns () in
  match f t x with
  | r ->
    Obs.Histogram.record t.latency (Clock.now_ns () - t0);
    r
  | exception e ->
    Obs.Histogram.record t.latency (Clock.now_ns () - t0);
    raise e

(* [handle_line] never raises: whatever arrives on the wire, the
   caller gets exactly one JSON response object back. *)
let handle_line t line : Json.t = timed t answer_line line

(* A line the framer discarded for being over the cap gets the same
   accounting and response as an oversized line through [handle_line],
   without the line ever having been buffered. *)
let handle_oversized t len : Json.t = timed t answer_oversized len

(* A rate-limit answer skips the request: only the id is worth parsing
   out of the raw line. *)
let id_of_line line =
  match Json.parse line with
  | Ok r -> Option.value ~default:Json.Null (Json.member "id" r)
  | Error _ -> Json.Null

let rate_limited t line =
  Atomic.incr t.total;
  Atomic.incr t.conns.rate_limited;
  error_response t ~id:(id_of_line line) ~kind:"rate_limited"
    ~extra:[ "retry_after_ms", Json.Int retry_after_ms ]
    "request rate limit exceeded for this connection"

(* A reply on the wire: the proto tag is appended at this layer. *)
let print_reply buf j = Json.add buf (with_proto j)

(* ----- what a session reports back ----- *)

let limits t = t.limits
let count_bytes_in t n = ignore (Atomic.fetch_and_add t.conns.bytes_in n)
let count_bytes_out t n = ignore (Atomic.fetch_and_add t.conns.bytes_out n)
let count_epipe t = Atomic.incr t.epipe

let install_signal_handlers t =
  let quiet f = try f () with Invalid_argument _ | Sys_error _ -> () in
  (* a closed client pipe must surface as EPIPE on write (counted,
     clean shutdown), not as a process-killing SIGPIPE *)
  quiet (fun () -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore);
  List.iter
    (fun s ->
      quiet (fun () ->
          Sys.set_signal s
            (Sys.Signal_handle (fun _ -> Atomic.set t.stop true))))
    [ Sys.sigint; Sys.sigterm ]

(* final snapshot on stderr: stdout carries only protocol responses.
   The persistence hook runs first — end of service is the last safe
   flush point, and the snapshot's store counters must reflect it. *)
let print_final_stats t =
  run_persist t;
  try
    prerr_endline
      (Json.to_string (Json.Obj [ "final_stats", stats_json t ]));
    flush stderr
  with Sys_error _ -> ()
