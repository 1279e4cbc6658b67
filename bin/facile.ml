(* Command-line front end, the role facile.py plays for the original
   tool: predict basic-block throughput, explain bottlenecks, sweep
   microarchitectures, serve predictions over NDJSON, or run the
   reference pipeline simulator.

   Input errors are typed (Facile_x86.Err): every kind maps to a
   distinct exit code here and to the wire `error.kind` field in
   `facile serve`, so callers can branch on the failure class. *)

open Cmdliner
open Facile_x86
open Facile_uarch
open Facile_core
module Json = Facile_obs.Json
module Engine = Facile_engine.Engine
module Serve = Facile_engine.Serve
module Net = Facile_engine.Net
module Store = Facile_store.Store
module Store_codec = Facile_store.Codec

let ( let* ) = Result.bind

(* [List.map f l], stopping at the first error *)
let map_ok f l =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    (Ok []) l
  |> Result.map List.rev

let read_input = function
  | Some path ->
    (* a directory opens, then fails to read with an errno that does
       not name it *)
    if Sys.is_directory path then raise (Sys_error (path ^ ": Is a directory"));
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  | None ->
    (* read stdin in 64 KiB chunks: one Buffer.add_channel byte at a
       time costs a bounds-checked refill per byte and makes piping a
       large corpus crawl *)
    let chunk_len = 65536 in
    let buf = Buffer.create chunk_len in
    let chunk = Bytes.create chunk_len in
    let rec loop () =
      let n = input stdin chunk 0 chunk_len in
      if n > 0 then begin
        Buffer.add_subbytes buf chunk 0 n;
        loop ()
      end
    in
    loop ();
    Buffer.contents buf

(* The block front end of every command: hex input is un-hexed, then
   Block.analyze turns every refusal into a typed error. *)
let load_block cfg ~hex text =
  if hex then
    let* code = Hex.decode text in
    Block.analyze cfg (`Code code)
  else Block.analyze cfg (`Asm text)

(* Run a command body; typed errors exit with their kind's code,
   untyped Failure and I/O errors (a missing input file, a directory
   given as one) keep the generic exit 1. *)
let finish f =
  match f () with
  | Ok () -> 0
  | Error (e : Err.t) | (exception Err.Error e) ->
    prerr_endline ("error: " ^ Err.to_string e);
    Err.exit_code e.Err.kind
  | exception (Failure m | Sys_error m) ->
    prerr_endline ("error: " ^ m);
    1

(* One spelling for every numeric option floor, validated before any
   input is read — batch and serve once carried duplicated (and
   order-sensitive) copies of these checks. *)
let require_at_least ~flag floor v =
  if v < floor then
    failwith (Printf.sprintf "%s must be at least %d, got %d" flag floor v)

let require_opt_at_least ~flag floor = function
  | Some v -> require_at_least ~flag floor v
  | None -> ()

let run_command arch f =
  match Config.of_abbrev arch with
  | Some cfg -> finish (fun () -> f cfg)
  | None ->
    prerr_endline ("error: unknown microarchitecture: " ^ arch);
    Err.exit_code Err.Unknown_arch

let print_prediction cfg block mode (p : Model.prediction) =
  Printf.printf "block: %d instructions, %d bytes, %d fused-domain uops\n"
    (Block.instruction_count block)
    block.Block.len (Block.fused_uops block);
  Printf.printf "uarch: %s (%s), mode: %s\n" cfg.Config.name cfg.Config.abbrev
    (match mode with `Loop -> "loop (TP_L)" | `Unrolled -> "unrolled (TP_U)");
  Printf.printf "predicted inverse throughput: %.2f cycles/iteration\n\n"
    p.Model.cycles;
  Printf.printf "component bounds:\n";
  List.iter
    (fun c ->
      let tag = if Model.is_bottleneck p c then "  <- bottleneck" else "" in
      Printf.printf "  %-11s %6.2f%s\n" (Model.component_name c)
        (Model.value p c) tag)
    Model.all_components

(* the shared prediction encoding (Model.prediction_to_json), prefixed
   with call-site context fields *)
let prediction_with_context extra p =
  match Model.prediction_to_json p with
  | Json.Obj fields -> Json.Obj (extra @ fields)
  | other -> Json.Obj (extra @ [ "prediction", other ])

(* ----- predict ----- *)

let arch_arg =
  let doc = "Target microarchitecture (SNB, IVB, HSW, BDW, SKL, CLX, ICL, TGL, RKL)." in
  Arg.(value & opt string "SKL" & info [ "a"; "arch" ] ~docv:"ARCH" ~doc)

(* a string, parsed by Model.notion_of_string, so an unknown mode is a
   typed unknown_mode error (exit 6) rather than a usage error *)
let mode_arg =
  let doc = "Throughput notion: loop (TP_L), unroll (TP_U), or auto." in
  Arg.(value
       & opt string (Model.notion_name `Auto)
       & info [ "m"; "mode" ] ~docv:"MODE" ~doc)

let hex_arg =
  let doc = "Treat the input as hex-encoded machine code instead of assembly." in
  Arg.(value & flag & info [ "x"; "hex" ] ~doc)

let json_arg =
  let doc = "Emit machine-readable JSON instead of the human-readable report." in
  Arg.(value & flag & info [ "json" ] ~doc)

let file_arg =
  let doc = "Input file (defaults to stdin)." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let max_input_arg =
  let doc =
    "Reject inputs larger than $(docv) bytes with a typed too_large \
     error (exit code 8). 0 disables the limit."
  in
  Arg.(value & opt int 0 & info [ "max-input-bytes" ] ~docv:"BYTES" ~doc)

(* Resource options shared by batch and serve; serve documents its own
   --workers, which counts serving domains. *)
let workers_arg =
  let doc =
    "Worker domains (default: the number of cores the runtime \
     recommends). 1 forces sequential prediction."
  in
  Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)

let cache_cap_arg =
  let doc = "Memoization cache capacity in entries (bounded LRU)." in
  Arg.(value
       & opt int Engine.default_cache_cap
       & info [ "cache-cap" ] ~docv:"N" ~doc)

let deadline_opt_arg =
  let doc =
    "Per-request wall-clock deadline in milliseconds; work over budget \
     answers a typed timeout error (exit code 9)."
  in
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let check_input_size limit text =
  if limit > 0 && String.length text > limit then
    Error
      (Err.v Err.Too_large
         (Printf.sprintf "input of %d bytes exceeds the %d-byte limit"
            (String.length text) limit))
  else Ok text

let predict_cmd =
  let run arch mode hex json max_input deadline_ms file =
    run_command arch (fun cfg ->
        require_opt_at_least ~flag:"--deadline-ms" 0 deadline_ms;
        let* notion = Model.notion_of_string mode in
        let* text = check_input_size max_input (read_input file) in
        let now = Facile_obs.Clock.now_ns in
        let deadline =
          Option.map (fun ms -> now () + (ms * 1_000_000)) deadline_ms
        in
        let* block = load_block cfg ~hex text in
        (* decode can be the slow half on huge blocks: charge it
           against the same budget as the prediction *)
        match deadline with
        | Some d when now () >= d ->
          Error
            (Err.v Err.Timeout
               (Printf.sprintf "prediction exceeded its %dms deadline"
                  (Option.value ~default:0 deadline_ms)))
        | _ ->
          let mode = Model.resolve notion block in
          let p = Model.predict ~notion block in
          if json then
            print_endline
              (Json.to_string
                 (prediction_with_context
                    [ "arch", Json.Str cfg.Config.abbrev;
                      "mode", Json.Str (Model.notion_name mode) ]
                    p))
          else print_prediction cfg block mode p;
          Ok ())
  in
  Cmd.v (Cmd.info "predict" ~doc:"Predict basic-block throughput.")
    Term.(const run $ arch_arg $ mode_arg $ hex_arg $ json_arg
          $ max_input_arg $ deadline_opt_arg $ file_arg)

(* ----- explain ----- *)

let explain_cmd =
  let run arch mode hex file =
    run_command arch (fun cfg ->
        let* notion = Model.notion_of_string mode in
        let* block = load_block cfg ~hex (read_input file) in
        let mode = Model.resolve notion block in
        let p = Model.predict ~notion block in
        print_prediction cfg block mode p;
        print_newline ();
        if Model.is_bottleneck p Model.Precedence then begin
          Printf.printf "critical dependency chain (instr:value:def/use):\n";
          List.iter (Printf.printf "  %s\n") (Precedence.critical_chain block)
        end;
        if Model.is_bottleneck p Model.Ports then begin
          match Ports.critical_combination block with
          | Some (pc, n) ->
            Printf.printf "critical port combination: %s (%d uops -> %.2f)\n"
              (Port.to_string pc) n
              (float_of_int n /. float_of_int (Port.cardinal pc))
          | None -> ()
        end;
        (match mode with
         | `Loop ->
           Printf.printf "front-end path: %s\n"
             (match p.Model.fe_path with
              | Model.FE_decoders -> "legacy decoders (JCC erratum)"
              | Model.FE_lsd -> "loop stream detector"
              | Model.FE_dsb -> "decoded stream buffer"
              | Model.FE_none -> "-")
         | `Unrolled -> ());
        Printf.printf "\ncounterfactual speedups (component made infinitely fast):\n";
        List.iter
          (fun c ->
            Printf.printf "  %-11s %.2fx\n" (Model.component_name c)
              (Model.speedup_idealizing ~notion block c))
          (Model.candidates p);
        Ok ())
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Predict and explain bottlenecks with interpretable feedback.")
    Term.(const run $ arch_arg $ mode_arg $ hex_arg $ file_arg)

(* ----- sweep ----- *)

let sweep_cmd =
  let run mode hex file =
    finish (fun () ->
        let* notion = Model.notion_of_string mode in
        (* read the input once: stdin cannot be re-read per µarch *)
        let text = read_input file in
        let* rows =
          map_ok
            (fun cfg ->
              let* block = load_block cfg ~hex text in
              Ok (cfg, Model.predict ~notion block))
            Config.all
        in
        Printf.printf "%-14s %6s  %-24s\n" "uArch" "cycles" "bottlenecks";
        List.iter
          (fun ((cfg : Config.t), (p : Model.prediction)) ->
            Printf.printf "%-14s %6.2f  %s\n" cfg.Config.name p.Model.cycles
              (String.concat "+"
                 (List.map Model.component_name (Model.bottlenecks p))))
          rows;
        Ok ())
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Predict across all nine microarchitectures.")
    Term.(const run $ mode_arg $ hex_arg $ file_arg)

(* ----- batch: parallel prediction of many blocks ----- *)

let store_arg =
  let doc =
    "Persistent prediction store at $(docv): warm the memoization \
     cache from it at startup and append new predictions back \
     (crash-safe append-only segment with per-frame checksums; a \
     store written by an incompatible build is refused with exit \
     code 12). Inspect with $(b,facile cache)."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"PATH" ~doc)

(* deterministic fault injection (store I/O drills, the chaos harness):
   a no-op unless FACILE_FAULT is set *)
let configure_faults () =
  try Facile_engine.Fault.configure_from_env ()
  with Invalid_argument m -> failwith m

(* open (and crash-recover) the --store, if any *)
let open_store = function
  | None -> Ok None
  | Some path -> Result.map Option.some (Store.open_rw path)

(* warm restart: replay the store into the memo cache (file order is
   recency order, so the LRU comes back as it was) *)
let warm pool (report : Store.report) =
  Engine.memo_seed pool (List.rev_map Store_codec.to_memo report.Store.records)

(* A batch's results as memo entries, most recent first: each key at
   its last occurrence in the input, the recency a one-worker run
   leaves in each shard.  Writing these, not the cache's snapshot
   (whose shard order follows the domains' timing, and whose capacity
   may have dropped some), gives the same store bytes for any
   --workers. *)
let batch_entries notion blocks preds =
  let seen = Hashtbl.create 1024 in
  List.filter_map
    (fun ((b : Block.t), p) ->
      let key =
        (b.Block.cfg.Config.arch, notion, Block.instruction_count b,
         b.Block.bytes)
      in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        Some (key, p)
      end)
    (List.rev (List.combine blocks preds))

let batch_cmd =
  let run arch mode workers cache_cap store quiet json file =
    run_command arch (fun cfg ->
        (* flag validation first: a bad flag must fail the same way on
           an empty stdin as on a full corpus *)
        require_opt_at_least ~flag:"--workers" 1 workers;
        require_at_least ~flag:"--cache-cap" 1 cache_cap;
        let* notion = Model.notion_of_string mode in
        (* one block per line: hex machine code, optionally followed by
           ",<measured cycles>"; blank lines and '#' comments skipped *)
        let* cases =
          String.split_on_char '\n' (read_input file)
          |> List.mapi (fun i line -> (i + 1, String.trim line))
          |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
          |> map_ok (fun (lineno, line) ->
                 let at_line (e : Err.t) =
                   Err.v ?pos:e.Err.pos e.Err.kind
                     (Printf.sprintf "line %d: %s" lineno e.Err.msg)
                 in
                 let* hex, measured =
                   match String.index_opt line ',' with
                   | None -> Ok (line, None)
                   | Some i ->
                     let m =
                       String.trim
                         (String.sub line (i + 1) (String.length line - i - 1))
                     in
                     (match float_of_string_opt m with
                      | Some v -> Ok (String.sub line 0 i, Some v)
                      | None ->
                        Error
                          (Err.v Err.Parse_error
                             (Printf.sprintf
                                "line %d: cannot parse measured cycles %S"
                                lineno m)))
                 in
                 let* block =
                   Result.map_error at_line (load_block cfg ~hex:true hex)
                 in
                 Ok (lineno, block, measured))
        in
        if cases = [] then failwith "no blocks in input";
        configure_faults ();
        let* store = open_store store in
        let blocks = List.map (fun (_, b, _) -> b) cases in
        let pool = Engine.create ?workers ~cache_cap () in
        Option.iter (fun (_, report) -> warm pool report) store;
        let t0 = Unix.gettimeofday () in
        let preds =
          Fun.protect
            ~finally:(fun () -> Engine.shutdown pool)
            (fun () -> Engine.predict_batch pool ~mode:notion blocks)
        in
        let dt = Unix.gettimeofday () -. t0 in
        let flushed =
          Option.map
            (fun (w, _) ->
              Fun.protect
                ~finally:(fun () -> Store.close w)
                (fun () ->
                  Store.sync_memo w (batch_entries notion blocks preds)))
            store
        in
        if json then
          (* NDJSON, one object per block via the shared encoding; the
             human-readable summary moves to stderr *)
          List.iter2
            (fun (lineno, _, measured) (p : Model.prediction) ->
              print_endline
                (Json.to_string
                   (prediction_with_context
                      (("line", Json.Int lineno)
                       ::
                       (match measured with
                        | Some m -> [ "measured", Json.Float m ]
                        | None -> []))
                      p)))
            cases preds
        else if not quiet then begin
          Printf.printf "%-6s %8s  %s\n" "line" "cycles" "bottlenecks";
          List.iter2
            (fun (lineno, _, measured) (p : Model.prediction) ->
              Printf.printf "%-6d %8.2f  %s%s\n" lineno p.Model.cycles
                (String.concat "+"
                   (List.map Model.component_name (Model.bottlenecks p)))
                (match measured with
                 | Some m -> Printf.sprintf "  (measured %.2f)" m
                 | None -> ""))
            cases preds
        end;
        let out = if json then stderr else stdout in
        let n = List.length blocks in
        let { Engine.hits; misses; _ } = Engine.cache_stats pool in
        Printf.fprintf out
          "%d blocks on %s in %.3f s (%.0f blocks/s, %d worker%s, %d unique, \
           %d memo hit%s)\n"
          n cfg.Config.name dt
          (float_of_int n /. Float.max dt 1e-9)
          (Engine.size pool)
          (if Engine.size pool = 1 then "" else "s")
          misses hits
          (if hits = 1 then "" else "s");
        (match flushed with
         | None -> ()
         | Some n ->
           Printf.fprintf out "store: %d new record%s appended\n" n
             (if n = 1 then "" else "s"));
        let pairs =
          List.filter_map
            (fun ((_, _, measured), (p : Model.prediction)) ->
              Option.map (fun m -> (m, p.Model.cycles)) measured)
            (List.combine cases preds)
        in
        if pairs <> [] then begin
          Printf.fprintf out
            "aggregate error vs. measured (%d block%s): MAPE %.2f%%"
            (List.length pairs)
            (if List.length pairs = 1 then "" else "s")
            (100.0 *. Facile_stats.Error_metrics.mape pairs);
          if List.length pairs >= 2 then begin
            (* tau_b is nan when either variable is constant *)
            let tau = Facile_stats.Kendall.tau_b pairs in
            if not (Float.is_nan tau) then
              Printf.fprintf out ", Kendall tau %.4f" tau
          end;
          output_char out '\n'
        end;
        Ok ())
  in
  let quiet_arg =
    let doc = "Only print the aggregate summary." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Predict many blocks in parallel (one hex-encoded block per \
          line, optionally ',<measured cycles>' for aggregate error \
          metrics).")
    Term.(const run $ arch_arg $ mode_arg $ workers_arg $ cache_cap_arg
          $ store_arg $ quiet_arg $ json_arg $ file_arg)

(* ----- serve: long-running NDJSON prediction service ----- *)

let serve_cmd =
  let run workers deadline_ms no_deadline cache_cap store store_flush
      max_input_bytes max_insts tcp max_conns conn_rate =
    finish @@ fun () ->
    require_opt_at_least ~flag:"--workers" 1 workers;
    require_opt_at_least ~flag:"--deadline-ms" 0 deadline_ms;
    require_at_least ~flag:"--cache-cap" 1 cache_cap;
    require_opt_at_least ~flag:"--store-flush" 1 store_flush;
    require_at_least ~flag:"--max-input-bytes" 1 max_input_bytes;
    require_at_least ~flag:"--max-insts" 1 max_insts;
    require_at_least ~flag:"--max-conns" 1 max_conns;
    if conn_rate < 0.0 || not (Float.is_finite conn_rate) then
      failwith (Printf.sprintf "--conn-rate must be >= 0, got %g" conn_rate);
    if store = None && store_flush <> None then
      failwith "--store-flush needs --store";
    let tcp_endpoint =
      match tcp with
      | None -> None
      | Some s ->
        (match Net.parse_endpoint s with
         | Ok (host, port) -> Some (host, port)
         | Error m -> failwith ("--tcp: " ^ m))
    in
    configure_faults ();
    (* open the store before starting any serving machinery: a skewed
       or corrupt store must refuse with its typed exit code, not
       after the listener is up *)
    let* store = open_store store in
    let deadline_ms = if no_deadline then None else deadline_ms in
    let t =
      Serve.of_config
        { Serve.workers;
          cache_cap = Some cache_cap;
          deadline_ms;
          flush_every = store_flush;
          limits = { Serve.default_limits with Serve.max_input_bytes; max_insts } }
    in
    let engine = Serve.engine t in
    (* warm restart + persistence hook: replay the store into the memo
       cache, then flush new entries back every --store-flush
       predictions and at graceful shutdown *)
    Option.iter
      (fun (w, report) ->
        warm engine report;
        Serve.set_persist t (fun () ->
            ignore (Store.sync_memo w (Engine.memo_entries engine))))
      store;
    (* one-line effective-config announce on stderr (stdout carries
       only protocol responses): operators and the chaos harness see
       what the flags actually resolved to *)
    prerr_endline
      (Json.to_string
         (Json.Obj
            [ "config",
              Json.Obj
                [ "workers", Json.Int (Serve.workers t);
                  "cache_cap", Json.Int cache_cap;
                  "cache_shards", Json.Int (Engine.cache_shard_count engine);
                  "deadline_ms",
                  (match deadline_ms with
                   | None -> Json.Null
                   | Some ms -> Json.Int ms);
                  "max_input_bytes", Json.Int max_input_bytes;
                  "max_insts", Json.Int max_insts;
                  "store",
                  (match store with
                   | None -> Json.Null
                   | Some (w, _) -> Json.Str (Store.path w));
                  "store_flush",
                  (match store_flush with
                   | None -> Json.Null
                   | Some n -> Json.Int n);
                  "warm_records",
                  (match store with
                   | None -> Json.Null
                   | Some (_, r) ->
                     Json.Int (List.length r.Store.records)) ] ]));
    flush stderr;
    Fun.protect
      ~finally:(fun () ->
        (* Serve.shutdown runs the persistence hook (final flush)
           before the writer is closed *)
        Fun.protect
          ~finally:(fun () -> Option.iter (fun (w, _) -> Store.close w) store)
          (fun () -> Serve.shutdown t))
      (fun () ->
        match tcp_endpoint with
        | None -> Net.run_stdio t stdin stdout
        | Some (host, port) ->
          (* the bound address goes to stderr as one JSON line so
             clients (and the chaos harness) can discover an
             ephemeral port; stdout stays idle in TCP mode *)
          Net.run t
            ~announce:(fun ~host ~port ->
              prerr_endline
                (Json.to_string
                   (Json.Obj
                      [ "listening",
                        Json.Str (Printf.sprintf "%s:%d" host port) ]));
              flush stderr)
            { Net.host; port; max_conns; conn_rate });
    Ok ()
  in
  let serve_workers_arg =
    let doc =
      "Serving domains for --tcp, the one that accepts connections \
       included (default: the number of cores the runtime recommends). \
       Each accepted connection is served on the domain with the \
       fewest open connections. Stdio serving runs on one domain \
       whatever $(docv) is."
    in
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc =
      "Per-request wall-clock deadline in milliseconds; requests over \
       budget answer a typed timeout error. 0 means an already-spent \
       budget (every predict request times out — useful for drills)."
    in
    Arg.(value & opt (some int) Serve.default_config.deadline_ms
         & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let no_deadline_arg =
    let doc = "Disable the per-request deadline." in
    Arg.(value & flag & info [ "no-deadline" ] ~doc)
  in
  let serve_max_input_arg =
    let doc = "Per-request hex/asm payload limit in bytes (too_large)." in
    Arg.(value & opt int Serve.default_limits.max_input_bytes
         & info [ "max-input-bytes" ] ~docv:"BYTES" ~doc)
  in
  let max_insts_arg =
    let doc = "Per-request instruction-count limit (too_large)." in
    Arg.(value & opt int Serve.default_limits.max_insts
         & info [ "max-insts" ] ~docv:"N" ~doc)
  in
  let tcp_arg =
    let doc =
      "Serve many concurrent clients over TCP on $(docv) instead of \
       stdio (e.g. 127.0.0.1:9999). Port 0 picks an ephemeral port; \
       the bound address is announced on stderr as one \
       {\"listening\":\"host:port\"} line."
    in
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)
  in
  let max_conns_arg =
    let doc =
      "Concurrent TCP connection limit; connections over the limit are \
       answered with a single retry_after line and closed."
    in
    Arg.(value & opt int Net.default_config.max_conns
         & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let store_flush_arg =
    let doc =
      "With --store: also flush new predictions to the store after \
       every $(docv) successful predictions (default: only at \
       graceful shutdown). Lower values lose less on a crash and \
       fsync more often."
    in
    Arg.(value
         & opt (some int) None
         & info [ "store-flush" ] ~docv:"N" ~doc)
  in
  let conn_rate_arg =
    let doc =
      "Per-connection request admission rate in requests/second (token \
       bucket; refused requests answer a typed rate_limited error with \
       a retry_after_ms hint). 0 disables the limit."
    in
    Arg.(value & opt float Net.default_config.conn_rate
         & info [ "conn-rate" ] ~docv:"RPS" ~doc)
  in
  let man =
    [ `S Manpage.s_description;
      `P
        "Reads one JSON request object per line from standard input \
         and answers each with one JSON object on standard output, \
         every line in order: a client that writes faster than it \
         reads its answers is held back by the pipe, never refused. \
         The engine and its memoization cache persist across \
         requests, so repeated blocks are predicted once.";
      `P
        "Request: {\"id\":..,\"arch\":\"SKL\",\"mode\":\"auto\",\
         \"hex\":\"4801d8\"} (or \"asm\":\"add rax, rbx\" instead of \
         \"hex\"). Response: {\"id\":..,\"cycles\":..,\
         \"bottlenecks\":[..],\"values\":{..},\"fe_path\":..} or \
         {\"id\":..,\"error\":{\"kind\":..,\"msg\":..}}.";
      `P
        "{\"cmd\":\"stats\"} returns request counts, error counts by \
         kind, cache hits/misses/evictions, connection counts, \
         fault-injection counters, p50/p95/p99 latency, and \
         per-component time attribution. Malformed input yields a \
         typed error response.";
      `P
        "Wire protocol version 1: every response carries \
         \"proto\":1, {\"cmd\":\"version\"} reports the protocol \
         version and build information, requests carrying an \
         unknown top-level key or a \"proto\" other than 1 are \
         rejected with bad_request.";
      `P
        "With --tcp HOST:PORT the same service accepts many \
         concurrent connections on --workers serving domains: each \
         connection gets its own thread on the domain with the fewest \
         open connections, which reads, predicts and answers its \
         requests in order, with its own framing and optional \
         --conn-rate admission bucket (refusals answer rate_limited), \
         while all connections share one engine and memoization \
         cache. Connections over --max-conns are refused with a \
         retry_after line. A client \
         that disconnects mid-write is counted under io.epipe and \
         never affects other connections. Stats gain a \
         \"connections\" section (accepted/active/rejected/\
         rate_limited/bytes).";
      `P
        "Robustness: decode+predict run inside a request boundary (an \
         exception, such as an injected fault, answers a typed \
         internal error for that request only); requests over the \
         --deadline-ms budget answer timeout; oversized inputs answer \
         too_large. EOF, SIGINT, SIGTERM, and a closed client pipe \
         all answer what was read, flush a final stats snapshot to \
         stderr, and exit 0. Set \
         FACILE_FAULT=point:rate:seed[:limit] (points: decode, \
         predict, respond, store.short_write, store.enospc, \
         store.read) to inject deterministic faults.";
      `P
        "With --store PATH the memoization cache survives restarts: \
         it is warmed from the store at startup (after crash \
         recovery — a kill -9 mid-append loses at most the final \
         record) and flushed back at graceful shutdown, plus every \
         --store-flush N predictions. The startup stderr line \
         {\"config\":..} reports the effective configuration, \
         including how many records warmed the cache." ]
  in
  Cmd.v
    (Cmd.info "serve" ~man
       ~doc:
         "Serve predictions over a fault-tolerant NDJSON loop (stdio \
          or multi-client TCP).")
    Term.(const run $ serve_workers_arg $ deadline_arg
          $ no_deadline_arg $ cache_cap_arg $ store_arg $ store_flush_arg
          $ serve_max_input_arg $ max_insts_arg $ tcp_arg $ max_conns_arg
          $ conn_rate_arg)

(* ----- simulate ----- *)

let simulate_cmd =
  let run arch mode hex file =
    run_command arch (fun cfg ->
        let* notion = Model.notion_of_string mode in
        let* block = load_block cfg ~hex (read_input file) in
        let mode = Model.resolve notion block in
        let p = Model.predict ~notion block in
        let hw =
          Facile_sim.Sim.cycles_per_iteration ~fidelity:Facile_sim.Sim.Hardware
            ~mode block
        in
        Printf.printf
          "facile: %.2f cycles/iter; pipeline simulator: %.2f cycles/iter \
           (%.1f%% difference)\n"
          p.Model.cycles hw
          (100.0 *. abs_float (hw -. p.Model.cycles) /. Float.max hw 1e-9);
        Ok ())
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Compare the analytical prediction against the pipeline simulator.")
    Term.(const run $ arch_arg $ mode_arg $ hex_arg $ file_arg)

(* ----- isa: dump the instruction database ----- *)

let isa_cmd =
  let run arch filter =
    run_command arch (fun cfg ->
        (* describe each distinct mnemonic once, on register operands *)
        let rng = Facile_bhive.Prng.create 1 in
        let seen = Hashtbl.create 128 in
        let rows = ref [] in
        List.iter
          (fun profile ->
            for _ = 1 to 3000 do
              let i =
                Facile_bhive.Genblock.random_inst rng profile ~allow_fma:true
              in
              let name = Inst.mnemonic_name i.Inst.mnem in
              let mem = Inst.mem_operand i <> None in
              let key = (name, mem) in
              if
                (not (Hashtbl.mem seen key))
                && (filter = "" || name = String.lowercase_ascii filter)
              then begin
                match Facile_db.Db.describe cfg i with
                | d ->
                  Hashtbl.add seen key ();
                  let ports =
                    String.concat "+"
                      (List.map
                         (fun (u : Facile_db.Db.uop) ->
                           Facile_uarch.Port.to_string u.Facile_db.Db.ports)
                         d.Facile_db.Db.dispatched)
                  in
                  rows :=
                    [ (if mem then name ^ " (mem)" else name);
                      string_of_int d.Facile_db.Db.fused_uops;
                      string_of_int d.Facile_db.Db.issued_uops;
                      string_of_int d.Facile_db.Db.latency;
                      (if d.Facile_db.Db.eliminated then "elim"
                       else if ports = "" then "-"
                       else ports);
                      (if d.Facile_db.Db.macro_fusible then "yes" else "") ]
                    :: !rows
                | exception Facile_db.Db.Unsupported _ -> ()
              end
            done)
          Facile_bhive.Genblock.all_profiles;
        let rows = List.sort_uniq compare !rows in
        Printf.printf
          "Instruction characteristics on %s (register operand forms):\n\n"
          cfg.Config.name;
        print_endline
          (Facile_report.Table.render
             ~header:
               [ "mnemonic"; "fused"; "issued"; "lat"; "ports"; "fuses" ]
             rows);
        Ok ())
  in
  let filter_arg =
    let doc = "Only show this mnemonic." in
    Arg.(value & opt string "" & info [ "f"; "filter" ] ~docv:"MNEMONIC" ~doc)
  in
  Cmd.v
    (Cmd.info "isa"
       ~doc:"Dump the per-microarchitecture instruction database.")
    Term.(const run $ arch_arg $ filter_arg)

(* ----- region: weighted multi-block analysis ----- *)

let region_cmd =
  let run arch file =
    run_command arch (fun cfg ->
        (* input format: blocks separated by lines "== <weight>" *)
        let sections =
          String.split_on_char '\n' (read_input file)
          |> List.mapi (fun i line -> (i + 1, line))
          |> List.fold_left
               (fun acc (lineno, line) ->
                 let t = String.trim line in
                 if String.length t >= 2 && String.sub t 0 2 = "==" then
                   let w = String.trim (String.sub t 2 (String.length t - 2)) in
                   (lineno, w, Buffer.create 64) :: acc
                 else begin
                   (match acc with
                    | (_, _, buf) :: _ ->
                      Buffer.add_string buf line;
                      Buffer.add_char buf '\n'
                    | [] -> ());
                   acc
                 end)
               []
          |> List.rev
        in
        if sections = [] then
          failwith "no blocks: separate blocks with '== <weight>' lines";
        let* region =
          map_ok
            (fun (lineno, w, buf) ->
              let* weight =
                match float_of_string_opt w with
                | Some v when Float.is_finite v && v > 0.0 -> Ok v
                | _ ->
                  Error
                    (Err.v Err.Parse_error
                       (Printf.sprintf
                          "line %d: weight %S is not a finite positive number"
                          lineno w))
              in
              let* block = Block.analyze cfg (`Asm (Buffer.contents buf)) in
              Ok { Region.block; weight })
            sections
        in
        let r = Region.analyze region in
        Printf.printf
          "region of %d blocks on %s:\n\
          \  naive weighted sum:      %.2f cycles\n\
          \  aggregated region bound: %.2f cycles\n\
          \  bottleneck:              %s\n"
          (List.length region) cfg.Config.name r.Region.naive r.Region.cycles
          (Model.component_name r.Region.bottleneck);
        List.iter
          (fun (c, v) ->
            Printf.printf "    %-11s %.2f\n" (Model.component_name c) v)
          r.Region.component_values;
        Ok ())
  in
  Cmd.v
    (Cmd.info "region"
       ~doc:
         "Analyze a multi-block region with execution frequencies \
          (blocks separated by '== <weight>' lines).")
    Term.(const run $ arch_arg $ file_arg)

(* ----- check and lint: static self-verification ----- *)

(* The one --only validator: every selected name must be one of [all];
   none selects them all. *)
let select_families ~what ~all = function
  | [] -> Ok all
  | l ->
    (match List.filter (fun f -> not (List.mem f all)) l with
     | [] -> Ok l
     | bad ->
       Error
         (Err.v Err.Parse_error
            (Printf.sprintf "unknown %s %s (expected %s)" what
               (String.concat "," bad) (String.concat "|" all))))

(* Print a findings report as JSON or text; any error-severity finding
   fails with [kind]. *)
let report_findings ~name ~kind ~json (r : Facile_check.Check.report) =
  let module Check = Facile_check.Check in
  if json then print_endline (Json.to_string (Check.report_to_json r))
  else begin
    List.iter
      (fun f -> print_endline (Facile_check.Finding.to_string f))
      r.Check.findings;
    Printf.printf "%s: %s\n" name (Check.summary r)
  end;
  if Check.ok r then Ok () else Error (Err.v kind (Check.summary r))

let check_cmd =
  let module Check = Facile_check.Check in
  let run arches families json list =
    finish (fun () ->
        if list then begin
          List.iter print_endline Check.analyzer_names;
          Ok ()
        end
        else
          let* cfgs =
            match arches with
            | [] -> Ok Config.all
            | l ->
              map_ok
                (fun a ->
                  match Config.of_abbrev a with
                  | Some cfg -> Ok cfg
                  | None ->
                    Error
                      (Err.v Err.Unknown_arch
                         ("unknown microarchitecture: " ^ a)))
                l
          in
          let* families =
            select_families ~what:"analyzer" ~all:Check.analyzer_names
              families
          in
          report_findings ~name:"check" ~kind:Err.Check_failed ~json
            (Check.run_all ~cfgs ~families ()))
  in
  let arches_arg =
    let doc =
      "Microarchitecture to check (repeatable; default: all nine)."
    in
    Arg.(value & opt_all string [] & info [ "a"; "arch" ] ~docv:"ARCH" ~doc)
  in
  let only_arg =
    let doc =
      "Analyzer family to run (repeatable; config, tables, codec, model, \
       flat, store; default: all)."
    in
    Arg.(value & opt_all string [] & info [ "only" ] ~docv:"FAMILY" ~doc)
  in
  let list_arg =
    let doc = "List the analyzer family names, one per line, and exit." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let man =
    [ `S Manpage.s_description;
      `P
        "Statically cross-checks the repository's own data layers: the \
         nine microarchitecture configs (port maps, width ordering, \
         feature flags), the instruction database (µop decomposition, \
         port mappings, latencies for every enumerated mnemonic and \
         operand shape), the encoder/decoder pair (round-trip identity, \
         layout metadata, prefix and LCP byte-level assumptions, opcode \
         table liveness), the throughput model's combination \
         invariants on a seeded generated corpus, and the flattened \
         form-indexed tables (exhaustive equivalence with the \
         hand-written descriptor logic on every form and arch).";
      `P
        "Findings carry a stable rule id (catalogued in DESIGN.md \
         section 10) and a severity. Exit status is 10 (check_failed) \
         when any error-severity finding is reported, 0 otherwise." ]
  in
  Cmd.v
    (Cmd.info "check" ~man
       ~doc:"Statically verify model tables, codec, and configs.")
    Term.(const run $ arches_arg $ only_arg $ json_arg $ list_arg)

(* ----- lint: concurrency-discipline analysis of our own sources ----- *)

let lint_cmd =
  let module Lint = Facile_lint.Lint in
  let run families json list roots =
    finish (fun () ->
        if list then begin
          List.iter print_endline Lint.rule_families;
          Ok ()
        end
        else
          let* families =
            select_families ~what:"rule family" ~all:Lint.rule_families
              families
          in
          let roots = match roots with [] -> Lint.default_roots | l -> l in
          report_findings ~name:"lint" ~kind:Err.Lint_failed ~json
            (Lint.run ~families ~roots ()))
  in
  let only_arg =
    let doc =
      "Rule family to run (repeatable; lock, blocking, order, fields, \
       handlers; default: all)."
    in
    Arg.(value & opt_all string [] & info [ "only" ] ~docv:"RULE" ~doc)
  in
  let list_arg =
    let doc = "List the rule family names, one per line, and exit." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let roots_arg =
    let doc =
      "Directory or .ml file to lint (repeatable; default: lib bin test \
       bench examples)."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"DIR" ~doc)
  in
  let man =
    [ `S Manpage.s_description;
      `P
        "Statically analyzes the repository's own OCaml sources (parsed \
         with the compiler's own front end) for concurrency-discipline \
         violations in the serving stack. Rule families: lock (raw \
         Mutex.lock/unlock and raw Condition.wait outside \
         lib/core/sync.ml, plus re-acquiring a held lock), blocking \
         (blocking calls while a Sync.with_lock section is open), order \
         (cycles in the inter-module lock-acquisition graph), fields \
         (mutable record fields in concurrent code that are neither \
         Atomic.t nor mutex-guarded nor annotated (* lint: unguarded *)), \
         and handlers (signal handlers and at_exit callbacks must only \
         touch Atomic flags).";
      `P
        "Findings carry a stable rule id (catalogued in DESIGN.md \
         section 14) and a severity. Exit status is 13 (lint_failed) \
         when any error-severity finding is reported, 0 otherwise." ]
  in
  Cmd.v
    (Cmd.info "lint" ~man
       ~doc:
         "Statically verify the concurrency discipline of this \
          repository's own sources.")
    Term.(const run $ only_arg $ json_arg $ list_arg $ roots_arg)

(* ----- cache: the persistent prediction store ----- *)

let cache_store_pos =
  let doc = "Store segment file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"STORE" ~doc)

let fingerprint_hex fp = Printf.sprintf "%016Lx" fp

let cache_stat_cmd =
  let run json path =
    finish (fun () ->
        (* stat is an inspection tool: it reports a skewed store
           (that is its job) instead of refusing it *)
        let* r = Store.load ~check_fingerprint:false path in
        let mine = Store.fingerprint () in
        let skewed = r.Store.stored_fingerprint <> mine in
        if json then
          print_endline
            (Json.to_string
               (match Store.report_to_json r with
                | Json.Obj kvs ->
                  Json.Obj
                    (kvs
                     @ [ "build_fingerprint", Json.Str (fingerprint_hex mine);
                         "skewed", Json.Bool skewed ])
                | other -> other))
        else begin
          Printf.printf "store: %s\n" path;
          Printf.printf "  records:      %d (%d frames, %d undecodable)\n"
            (List.length r.Store.records)
            r.Store.frames_ok r.Store.undecodable;
          Printf.printf "  quarantined:  %d corrupt frame%s\n"
            r.Store.quarantined
            (if r.Store.quarantined = 1 then "" else "s");
          Printf.printf "  torn tail:    %d byte%s\n" r.Store.torn_tail
            (if r.Store.torn_tail = 1 then "" else "s");
          Printf.printf "  file size:    %d bytes\n" r.Store.file_size;
          Printf.printf "  fingerprint:  %s%s\n"
            (fingerprint_hex r.Store.stored_fingerprint)
            (if skewed then
               Printf.sprintf " (SKEWED: this build is %s)"
                 (fingerprint_hex mine)
             else " (matches this build)")
        end;
        Ok ())
  in
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "Describe a store: record and corruption counts, size, and \
          model fingerprint (reports rather than refuses a skewed \
          store).")
    Term.(const run $ json_arg $ cache_store_pos)

let cache_verify_cmd =
  let run recompute json path =
    finish (fun () ->
        let* r = Store.load path in
        let scan_findings =
          (if r.Store.quarantined > 0 then
             [ Printf.sprintf "%d corrupt frame%s quarantined"
                 r.Store.quarantined
                 (if r.Store.quarantined = 1 then "" else "s") ]
           else [])
          @ (if r.Store.undecodable > 0 then
               [ Printf.sprintf "%d frame%s undecodable" r.Store.undecodable
                   (if r.Store.undecodable = 1 then "" else "s") ]
             else [])
          @
          if r.Store.torn_tail > 0 then
            [ Printf.sprintf "torn tail of %d byte%s" r.Store.torn_tail
                (if r.Store.torn_tail = 1 then "" else "s") ]
          else []
        in
        (* --recompute: every stored prediction must equal a fresh
           prediction bit for bit — the strongest statement that a
           warm cache serves exactly what a cold run would compute.
           One list of findings per record; an empty one is a match. *)
        let per_record =
          if not recompute then []
          else
            List.mapi
              (fun i (rec_ : Store_codec.record) ->
                let cfg = Config.by_arch rec_.Store_codec.arch in
                let where =
                  Printf.sprintf "record %d (%s)" i cfg.Config.abbrev
                in
                match Block.analyze cfg (`Code rec_.Store_codec.bytes) with
                | Error _ -> [ where ^ ": stored bytes no longer decode" ]
                | Ok block ->
                  (if Block.instruction_count block
                      <> rec_.Store_codec.insts
                   then [ where ^ ": instruction count changed" ]
                   else [])
                  @
                  let fresh =
                    Model.predict ~notion:rec_.Store_codec.mode block
                  in
                  if Store_codec.pred_equal fresh rec_.Store_codec.pred
                  then []
                  else [ where ^ ": stored prediction differs from \
                                  recomputed" ])
              r.Store.records
        in
        let matched = List.length (List.filter (( = ) []) per_record) in
        let findings = scan_findings @ List.concat per_record in
        if json then
          print_endline
            (Json.to_string
               (Json.Obj
                  [ "ok", Json.Bool (findings = []);
                    "records", Json.Int (List.length r.Store.records);
                    "recomputed",
                    Json.Int
                      (if recompute then List.length r.Store.records else 0);
                    "findings",
                    Json.Arr (List.map (fun f -> Json.Str f) findings) ]))
        else begin
          List.iter (fun f -> Printf.printf "finding: %s\n" f) findings;
          Printf.printf "verify: %s: %d record%s%s, %d finding%s\n" path
            (List.length r.Store.records)
            (if List.length r.Store.records = 1 then "" else "s")
            (if recompute then
               Printf.sprintf ", %d recomputed bit-identically" matched
             else "")
            (List.length findings)
            (if List.length findings = 1 then "" else "s")
        end;
        if findings = [] then Ok ()
        else
          Error
            (Err.v Err.Check_failed
               (Printf.sprintf "%s: %d finding%s" path (List.length findings)
                  (if List.length findings = 1 then "" else "s"))))
  in
  let recompute_arg =
    let doc =
      "Re-predict every stored record and require bit-identical \
       results (floats compared by IEEE bits)."
    in
    Arg.(value & flag & info [ "recompute" ] ~doc)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Verify a store: scan for corruption (exit 10 with counted \
          findings if any) and optionally recompute every prediction.")
    Term.(const run $ recompute_arg $ json_arg $ cache_store_pos)

let cache_export_cmd =
  let run path =
    finish (fun () ->
        let* r = Store.load path in
        List.iter
          (fun rec_ ->
            print_endline (Json.to_string (Store_codec.to_json rec_)))
          r.Store.records;
        Printf.eprintf "exported %d record%s\n" (List.length r.Store.records)
          (if List.length r.Store.records = 1 then "" else "s");
        Ok ())
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Export a store as NDJSON on stdout (one record per line; \
          floats round-trip bit-identically).")
    Term.(const run $ cache_store_pos)

let cache_import_cmd =
  let run path file =
    finish (fun () ->
        let* records =
          String.split_on_char '\n' (read_input file)
          |> List.mapi (fun i line -> (i + 1, String.trim line))
          |> List.filter (fun (_, l) -> l <> "")
          |> map_ok (fun (lineno, line) ->
                 Result.bind (Json.parse line) Store_codec.of_json
                 |> Result.map_error (fun m ->
                        Err.v Err.Parse_error
                          (Printf.sprintf "line %d: %s" lineno m)))
        in
        let* w, _ = Store.open_rw path in
        let appended =
          Fun.protect
            ~finally:(fun () -> Store.close w)
            (fun () ->
              (* sync_memo expects most-recent-first and appends in
                 reverse, so reversing here preserves input order and
                 skips records already in the store *)
              Store.sync_memo w
                (List.rev_map Store_codec.to_memo records))
        in
        Printf.printf "imported %d of %d record%s into %s\n" appended
          (List.length records)
          (if List.length records = 1 then "" else "s")
          path;
        Ok ())
  in
  let file_pos =
    let doc = "NDJSON input file (defaults to stdin)." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "import"
       ~doc:
         "Import NDJSON records (facile cache export format) into a \
          store, skipping keys already present.")
    Term.(const run $ cache_store_pos $ file_pos)

let cache_cmd =
  let man =
    [ `S Manpage.s_description;
      `P
        "A store is an append-only segment file: a versioned, \
         checksummed header binding it to this build's instruction \
         tables, then one length-prefixed CRC-checked frame per \
         prediction record. facile batch --store and facile serve \
         --store use it to keep the memoization cache warm across \
         restarts.";
      `P
        "Recovery rules: a frame with a bad checksum is quarantined \
         (skipped and counted, never served); a torn tail — the \
         signature of a crash mid-append — is truncated away the \
         next time a writer opens the store, losing at most that \
         final partial frame; a store whose format version or model \
         fingerprint (model revision, configs and instruction tables) \
         does not match this build is refused with a typed store_skew \
         error, exit code 12." ]
  in
  Cmd.group
    (Cmd.info "cache" ~man
       ~doc:"Inspect, verify, export, and import persistent prediction \
             stores.")
    [ cache_stat_cmd; cache_verify_cmd; cache_export_cmd; cache_import_cmd ]

(* ----- disasm: decode machine code with layout details ----- *)

let disasm_cmd =
  let run arch file =
    run_command arch (fun cfg ->
        let* block = load_block cfg ~hex:true (read_input file) in
        let code = block.Block.bytes in
        Printf.printf "%-6s %-4s %-22s %-40s %s\n" "off" "len" "bytes"
          "instruction" "uops/lat";
        List.iter
          (fun (e : Block.entry) ->
            let lay = e.Block.layout in
            let bytes =
              Hex.encode (String.sub code lay.Encode.off lay.Encode.len)
            in
            let d = e.Block.desc in
            Printf.printf "%-6d %-4d %-22s %-40s %d uop%s, lat %d%s%s%s\n"
              lay.Encode.off lay.Encode.len bytes
              (Inst.to_string e.Block.inst)
              d.Facile_db.Db.fused_uops
              (if d.Facile_db.Db.fused_uops = 1 then "" else "s")
              d.Facile_db.Db.latency
              (if lay.Encode.lcp then ", LCP" else "")
              (if d.Facile_db.Db.eliminated then ", eliminated" else "")
              (if e.Block.fuses_with_next then ", fuses with next" else ""))
          (Block.entries block);
        Ok ())
  in
  Cmd.v
    (Cmd.info "disasm"
       ~doc:"Disassemble hex machine code with per-instruction layout and \
             µop information.")
    Term.(const run $ arch_arg $ file_arg)

let () =
  let info =
    Cmd.info "facile" ~version:"1.0"
      ~doc:"Fast, accurate, and interpretable basic-block throughput prediction."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ predict_cmd; explain_cmd; sweep_cmd; batch_cmd; serve_cmd;
            simulate_cmd; isa_cmd; region_cmd; disasm_cmd; check_cmd;
            lint_cmd; cache_cmd ]))
