(* The repository benchmark (README.md in this directory):

     bench.exe --workload serve_hit|serve_miss|batch|all --seed N
               --seconds S --trace 0|1

   Prints a report and, as its last line, one JSON object with
   "correct", "attempted", "failed" and "metrics": the end-to-end
   metrics with --trace 0, the per-layer ones with --trace 1. *)

open Perfbench
module Engine = Facile_engine.Engine
module Store = Facile_store.Store
module Codec = Facile_store.Codec
module Clock = Facile_obs.Clock

(* Set-up is repeated this many times per run and the median is
   reported: one batch set-up is about 8 ms in a fresh process, where
   domain start-up, page faults and any stolen time move single samples
   over 2-3x. *)
let setups = 41

(* Peak memory is read once the timed phase has completed this many
   operations (or at its end, if it completes fewer): serve_miss grows
   the server's cache by one entry per request, so a reading at the
   end would track throughput rather than memory per request. *)
let rss_after_requests = 20_000
let rss_after_chunks = 1_500

(* [rss_probe pid n]: a progress callback that reads [pid]'s VmHWM at
   the [n]th operation, and the reading (taken now if none was). *)
let rss_probe pid n =
  let got = ref None in
  ( (fun k -> if k = n then got := Some (Host.peak_rss_mb pid)),
    fun () -> match !got with Some v -> v | None -> Host.peak_rss_mb pid )

(* Rates that size each workload's prepared stream, well above what
   the 2-vCPU reference host sustains (about 12k, 10k and 430 per
   second); a run that exhausts its stream ends early and says so.
   References are computed before the timed phase for the operations
   an [expected] rate allows, and after it for any beyond. *)
let hit_rate_cap = 40_000
let miss_rate_cap = 20_000
let miss_rate_expected = 12_000
let batch_chunk_rate_cap = 700
let batch_chunk_rate_expected = 450

(* Operations replayed by the traced run. *)
let replay_served = 10_000
let replay_chunks = 100

type opts = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  facile : string;
  work_dir : string;
}

type outcome = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* ----- reporting ----- *)

type e2e = {
  tally : Reply.tally;
  ops : int;               (** operations completed in the timed phase *)
  elapsed_s : float;
  by_second : Stats.second array;  (** diagnostics *)
  summary : Stats.summary;
  setup_s : float array;
  rss_mb : float;
  noise : Host.noise;
  exhausted : bool;
  counters : (string * float) list;
  premise : string option;  (** a violated workload premise *)
}

(* The end-to-end figures of a timed phase, over all of it, and its
   per-second diagnostics. *)
let summarize ~lat_ns ~done_ns ~elapsed_ns ~(marks : Host.marks) =
  let at = marks.Host.at in
  ( Stats.per_second ~done_ns ~lat_ns ~cpu_us:at ~steal:(Host.window_steal marks),
    Stats.summarize ~elapsed_ns ~lat_ns ~cpu_us:(at.(Array.length at - 1) -. at.(0)) )

let e2e_metrics e =
  [ ("ops_per_s", e.summary.Stats.ops_per_s, "1/s");
    ("latency_p50_us", e.summary.Stats.p50_us, "us");
    ("cpu_us_per_op", e.summary.Stats.cpu_us_per_op, "us");
    ("setup_s", Stats.median e.setup_s, "s");
    ("rss_mb", e.rss_mb, "MB") ]

let client_cpu_per_op e ~served =
  if served then e.noise.Host.client_cpu_us /. float_of_int (max 1 e.ops) else 0.

(* Figures of the timed phase reported beside the per-layer metrics:
   the host's state, and p99, which follows the host's CPU steal too
   closely to hold a bound from run to run (README.md, "Host noise"). *)
let diagnostics e ~served =
  let before, after = e.noise.Host.calib_ms in
  [ ("host.steal_share", e.noise.Host.steal_share);
    ("host.calib_ms", (before +. after) /. 2.);
    ("client.cpu_us_per_op", client_cpu_per_op e ~served);
    ("latency_p99_us", e.summary.Stats.p99_us) ]

let report name o e ~served =
  let t = e.tally in
  say "== %s  seed %d  timed %.3f s%s" name o.seed e.elapsed_s
    (if e.exhausted then "  (prepared stream exhausted: phase ended early)" else "");
  say "  attempted %d  failed %d%s" t.Reply.attempted t.Reply.failed
    (String.concat ""
       (Hashtbl.fold (fun k n acc -> Printf.sprintf "  %s=%d" k n :: acc) t.Reply.failures []));
  List.iter
    (fun (n, v, u) -> say "  %-16s %14.4f %s" n v u)
    (e2e_metrics e);
  say "  %d operations; latency_p99_us %.4f us over %d samples, %d beyond it%s" e.ops
    e.summary.Stats.p99_us e.summary.Stats.samples e.summary.Stats.beyond_p99
    (if e.summary.Stats.beyond_p99 < 10 then " (too few: p99 unsupported)" else "");
  say "  setup_s samples %s"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") e.setup_s)));
  let per_second f =
    String.concat " " (Array.to_list (Array.map (fun (w : Stats.second) -> f w) e.by_second))
  in
  say "  per second: ops %s" (per_second (fun w -> string_of_int w.Stats.ops));
  say "  per second: steal %s" (per_second (fun w -> Printf.sprintf "%.3f" w.Stats.steal));
  say "  per second: p50_us %s" (per_second (fun w -> Printf.sprintf "%.1f" w.Stats.p50_us));
  say "  per second: p99_us %s" (per_second (fun w -> Printf.sprintf "%.1f" w.Stats.p99_us));
  say "  per second: cpu_us_per_op %s"
    (per_second (fun w -> Printf.sprintf "%.1f" w.Stats.cpu_us_per_op));
  let before, after = e.noise.Host.calib_ms in
  say "  host: steal_share %.4f  calib_ms %.1f before / %.1f after  client.cpu_us_per_op %.2f"
    e.noise.Host.steal_share before after (client_cpu_per_op e ~served);
  say "  counters: %s"
    (String.concat "  " (List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v) e.counters));
  Option.iter (fun m -> say "  WORKLOAD PREMISE VIOLATED: %s" m) e.premise;
  if e.summary.Stats.samples = 0 then say "  NO OPERATION COMPLETED"

let outcome_of e ~served ~trace_values =
  let metrics =
    match trace_values with
    | None -> e2e_metrics e
    | Some values ->
      let all = values @ e.counters @ diagnostics e ~served in
      List.map
        (fun (n, u) -> (n, Option.value ~default:0. (List.assoc_opt n all), u))
        Layers.catalog
  in
  { attempted = e.tally.Reply.attempted;
    failed = e.tally.Reply.failed;
    correct = e.tally.Reply.failed = 0 && e.premise = None && e.summary.Stats.samples > 0;
    metrics }

let trace_report o name ~served ~e2e_us replay =
  let rows, values = Layers.compute ~served ~e2e_us replay in
  say "  traced replay (self time per operation):";
  Layers.print_table stdout ~e2e_us ~ops:replay.Replay.ops rows;
  let path = Filename.concat o.work_dir (Printf.sprintf "spans-%s.tsv" name) in
  Spans.write replay.Replay.spans path;
  say "  %d spans written to %s" (Spans.count replay.Replay.spans) path;
  values

(* ----- served workloads ----- *)

let cache_counters ~hits ~misses ~coalesced ~evictions ~entries =
  let lookups = hits + misses in
  [ ("cache.hits", float_of_int hits); ("cache.misses", float_of_int misses);
    ("cache.hit_share",
     if lookups = 0 then 0. else float_of_int hits /. float_of_int lookups);
    ("cache.coalesced", float_of_int coalesced);
    ("cache.evictions", float_of_int evictions);
    ("cache.entries", float_of_int entries) ]

let served_counters s0 s1 =
  let d path = Served.counter s1 path - Served.counter s0 path in
  cache_counters ~hits:(d [ "cache"; "hits" ]) ~misses:(d [ "cache"; "misses" ])
    ~coalesced:(d [ "cache"; "coalesced" ])
    ~evictions:(d [ "cache"; "evictions" ])
    ~entries:(Served.counter s1 [ "cache"; "entries" ])
  @ List.map
      (fun (name, path) -> (name, float_of_int (d path)))
      [ ("errors.total", [ "errors"; "total" ]); ("queue.shed", [ "queue"; "shed" ]);
        ("supervisor.respawns", [ "supervisor"; "respawns" ]);
        ("supervisor.inline_runs", [ "supervisor"; "inline_runs" ]) ]

(* Set up [setups] times (the last child serves the timed phase), then
   run the closed loop for [o.seconds]. *)
let run_served o ~tally ~store ~warmup ~line ~reply ~premise =
  let setup_s = Array.make setups 0. in
  let child = ref None in
  let stop () = Option.iter Served.stop !child; child := None in
  Fun.protect ~finally:stop (fun () ->
      for k = 0 to setups - 1 do
        stop ();
        let c, s = Served.setup ~facile:o.facile ~store ~warmup tally in
        child := Some c;
        setup_s.(k) <- s
      done;
      let c = Option.get !child in
      let s0 = Served.stats c in
      let probe = Host.start () in
      let progress, rss = rss_probe c.Served.pid rss_after_requests in
      let ph =
        Served.closed_loop c ~seconds:o.seconds ~line ~reply
          ~cpu:(fun () -> Host.proc_cpu_us c.Served.pid)
          ~progress tally
      in
      let rss_mb = rss () in
      let noise = Host.finish probe in
      let counters = served_counters s0 (Served.stats c) in
      let by_second, summary =
        summarize ~lat_ns:ph.Served.lat_ns ~done_ns:ph.Served.done_ns
          ~elapsed_ns:ph.Served.elapsed_ns ~marks:ph.Served.marks
      in
      ( { tally; ops = Array.length ph.Served.lat_ns;
          elapsed_s = Clock.ns_to_s ph.Served.elapsed_ns; by_second; summary; setup_s; rss_mb; noise;
          exhausted = ph.Served.exhausted; counters; premise = premise counters },
        ph.Served.sent ))

let premise_zero name counters =
  match List.assoc_opt name counters with
  | Some v when v <> 0. -> Some (Printf.sprintf "%s = %g in the timed phase, expected 0" name v)
  | _ -> None

let warmup_of keys refs =
  Array.mapi (fun j k -> (Workload.request_line ~id:(-(j + 1)) k, -(j + 1), refs.(j))) keys

(* Served replies are scanned as they arrive and compared with their
   references once the timed phase is over. *)
let recorder tally n =
  let got = Array.make n Float.nan in
  ( got,
    fun i line ->
      match Reply.cycles_for ~id:i line with
      | Ok c -> got.(i) <- c
      | Error why -> Reply.fail tally why )

let verify tally got ~sent ~expect =
  for i = 0 to sent - 1 do
    if (not (Float.is_nan got.(i))) && not (Reply.same_bits got.(i) (expect i)) then
      Reply.fail tally "wrong_cycles"
  done

let strip_newline l = String.sub l 0 (String.length l - 1)

(* The first timed requests, as sent, for the traced replay. *)
let replay_served_ops ~sent ~key_of =
  let keys = Array.init (min sent replay_served) key_of in
  (Array.mapi (fun i k -> strip_newline (Workload.request_line ~id:i k)) keys, keys)

let seconds_of f =
  let t0 = Clock.now_ns () in
  f ();
  Clock.ns_to_s (Clock.now_ns () - t0)

let median_of_3 sample = Stats.median (Array.init 3 (fun _ -> sample ()))

let serve_hit o =
  let hit = Workload.hit ~seed:o.seed ~max_ops:(o.seconds * hit_rate_cap) in
  let refs = Workload.references hit.Workload.set in
  let store = Filename.concat o.work_dir "serve_hit.store" in
  Served.prepare_store ~facile:o.facile store hit.Workload.set;
  let key_of i = hit.Workload.set.(hit.Workload.draws.(i)) in
  let n = Array.length hit.Workload.draws in
  let tally = Reply.tally () in
  let got, reply = recorder tally n in
  let e, sent =
    run_served o ~tally ~store:(Some store)
      ~warmup:(warmup_of (Array.sub hit.Workload.set 0 Workload.n_archs) refs)
      ~line:(fun i -> if i < n then Some (Workload.request_line ~id:i (key_of i)) else None)
      ~reply ~premise:(premise_zero "cache.misses")
  in
  verify tally got ~sent ~expect:(fun i -> refs.(hit.Workload.draws.(i)));
  report "serve_hit" o e ~served:true;
  let trace_values =
    if not o.trace || sent = 0 then None
    else begin
      let load () =
        match Store.load store with
        | Ok r -> r
        | Error err -> failwith (Facile_x86.Err.to_string err)
      in
      let load_s = median_of_3 (fun () -> seconds_of (fun () -> ignore (load ()))) in
      let entries = List.rev_map Codec.to_memo (load ()).Store.records in
      let seed_s =
        median_of_3 (fun () ->
            let eng = Engine.create () in
            Fun.protect ~finally:(fun () -> Engine.shutdown eng) (fun () ->
                seconds_of (fun () -> Engine.memo_seed eng entries)))
      in
      let lines, keys = replay_served_ops ~sent ~key_of in
      let r = Replay.serve ~lines ~keys ~seed:(Some entries) ~misses:false in
      Some
        (trace_report o "serve_hit" ~served:true ~e2e_us:e.summary.Stats.mean_us r
        @ [ ("store.load_s", load_s); ("engine.memo_seed_s", seed_s) ])
    end
  in
  Sys.remove store;
  outcome_of e ~served:true ~trace_values

let serve_miss o =
  let warmup = Workload.warmup ~seed:o.seed in
  let fresh = Workload.miss ~seed:o.seed ~max_ops:(o.seconds * miss_rate_cap) in
  let n = Array.length fresh in
  let refs_w = Workload.references warmup and refs = Array.make n Float.nan in
  let before = min n (o.seconds * miss_rate_expected) in
  Workload.fill_references refs fresh ~lo:0 ~hi:before;
  let tally = Reply.tally () in
  let got, reply = recorder tally n in
  let e, sent =
    run_served o ~tally ~store:None ~warmup:(warmup_of warmup refs_w)
      ~line:(fun i -> if i < n then Some (Workload.request_line ~id:i fresh.(i)) else None)
      ~reply ~premise:(premise_zero "cache.hits")
  in
  Workload.fill_references refs fresh ~lo:before ~hi:(max before sent);
  verify tally got ~sent ~expect:(fun i -> refs.(i));
  report "serve_miss" o e ~served:true;
  let trace_values =
    if not o.trace || sent = 0 then None
    else begin
      let lines, keys = replay_served_ops ~sent ~key_of:(fun i -> fresh.(i)) in
      let r = Replay.serve ~lines ~keys ~seed:None ~misses:true in
      Some (trace_report o "serve_miss" ~served:true ~e2e_us:e.summary.Stats.mean_us r)
    end
  in
  outcome_of e ~served:true ~trace_values

(* ----- the embedded workload ----- *)

(* Set-up in a fresh process: `bench.exe batch-setup SEED` prints its
   set-up seconds. *)
let batch_setup_child o =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "batch-setup"; string_of_int o.seed |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  (match Unix.waitpid [] pid with
   | _, Unix.WEXITED 0 -> ()
   | _ -> failwith "batch set-up child failed");
  match float_of_string_opt (String.trim out) with
  | Some s -> s
  | None -> failwith ("batch set-up child printed " ^ out)

let batch o =
  let tally = Reply.tally () in
  (* every set-up sample is timed in a fresh process, before anything
     there has touched the model tables *)
  let setup_s = Array.init setups (fun _ -> batch_setup_child o) in
  let warmup = Workload.warmup ~seed:o.seed in
  let engine, _, got = Embedded.setup warmup in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) (fun () ->
      let refs_w = Workload.references warmup in
      Array.iteri
        (fun j cycles ->
          tally.Reply.attempted <- tally.Reply.attempted + 1;
          if not (List.length cycles = 1 && Reply.same_bits (List.hd cycles) refs_w.(j))
          then Reply.fail tally "wrong_cycles")
        got;
      let chunks =
        Workload.batch_chunks ~seed:o.seed ~max_ops:(o.seconds * batch_chunk_rate_cap)
      in
      let keys = Array.concat (Array.to_list chunks) in
      let refs = Array.make (Array.length keys) Float.nan in
      let before =
        Workload.chunk_size * min (Array.length chunks) (o.seconds * batch_chunk_rate_expected)
      in
      Workload.fill_references refs keys ~lo:0 ~hi:before;
      (* the peak memory of the timed phase, not of stream generation *)
      Gc.compact ();
      Host.reset_peak_rss ();
      let c0 = Engine.cache_stats engine in
      let probe = Host.start () in
      let progress, rss = rss_probe (Unix.getpid ()) rss_after_chunks in
      let ph = Embedded.timed engine ~chunks ~seconds:o.seconds ~progress in
      let rss_mb = rss () in
      let noise = Host.finish probe in
      let c1 = Engine.cache_stats engine in
      let done_ = ph.Embedded.done_ in
      Workload.fill_references refs keys ~lo:before
        ~hi:(max before (done_ * Workload.chunk_size));
      let bad = Embedded.failures ~refs ph.Embedded.results done_ in
      tally.Reply.attempted <- tally.Reply.attempted + done_;
      for _ = 1 to bad do Reply.fail tally "wrong_cycles" done;
      let counters =
        cache_counters ~hits:(c1.Engine.hits - c0.Engine.hits)
          ~misses:(c1.Engine.misses - c0.Engine.misses)
          ~coalesced:(c1.Engine.coalesced - c0.Engine.coalesced)
          ~evictions:(c1.Engine.evictions - c0.Engine.evictions)
          ~entries:c1.Engine.entries
        @ [ ("errors.total", float_of_int bad) ]
      in
      let by_second, summary =
        summarize ~lat_ns:ph.Embedded.lat_ns ~done_ns:ph.Embedded.done_ns
          ~elapsed_ns:ph.Embedded.elapsed_ns ~marks:ph.Embedded.marks
      in
      let e =
        { tally; ops = Array.length ph.Embedded.lat_ns;
          elapsed_s = Clock.ns_to_s ph.Embedded.elapsed_ns; by_second; summary; setup_s; rss_mb; noise;
          exhausted = ph.Embedded.exhausted; counters;
          premise = premise_zero "cache.hits" counters }
      in
      report "batch" o e ~served:false;
      say "  chunk size %d blocks of one µarch; pool of %d domains" Workload.chunk_size
        (Engine.size engine);
      let trace_values =
        if not o.trace || done_ = 0 then None
        else
          (* the replay's pools would otherwise share the host with this
             one's idle worker domain *)
          let () = Engine.shutdown engine in
          let r = Replay.batch ~chunks:(Array.sub chunks 0 (min done_ replay_chunks)) in
          Some (trace_report o "batch" ~served:false ~e2e_us:e.summary.Stats.mean_us r)
      in
      outcome_of e ~served:false ~trace_values)

(* ----- entry point ----- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result o =
  let metrics =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
         o.metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.correct o.attempted o.failed metrics

let workloads = [ ("serve_hit", serve_hit); ("serve_miss", serve_miss); ("batch", batch) ]

let run o =
  if not (Sys.file_exists o.facile) then
    failwith (o.facile ^ " not found: run from the root of a built checkout");
  if not (Sys.file_exists o.work_dir) then Sys.mkdir o.work_dir 0o755;
  match List.assoc_opt o.workload workloads with
  | Some f -> print_result (f o)
  | None when o.workload = "all" ->
    let outs = List.map (fun (name, f) -> (name, f o)) workloads in
    print_result
      { attempted = List.fold_left (fun a (_, r) -> a + r.attempted) 0 outs;
        failed = List.fold_left (fun a (_, r) -> a + r.failed) 0 outs;
        correct = List.for_all (fun (_, r) -> r.correct) outs;
        metrics =
          List.concat_map
            (fun (name, r) -> List.map (fun (n, v, u) -> (name ^ "." ^ n, v, u)) r.metrics)
            outs }
  | None -> failwith ("unknown workload " ^ o.workload)

let usage =
  "bench.exe --workload serve_hit|serve_miss|batch|all --seed N --seconds S --trace 0|1"

let () =
  match Sys.argv with
  | [| _; "batch-setup"; seed |] ->
    let warmup = Workload.warmup ~seed:(int_of_string seed) in
    let engine, s, _ = Embedded.setup warmup in
    Engine.shutdown engine;
    Printf.printf "%.9f\n" s
  | _ ->
    let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
    Arg.parse
      [ ("--workload", Arg.Set_string workload, "NAME serve_hit, serve_miss, batch or all");
        ("--seed", Arg.Set_int seed, "N workload seed");
        ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
        ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run") ]
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      usage;
    if !workload = "" || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline usage;
      exit 2
    end;
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let stop_on _ = exit 3 in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on);
    at_exit Served.kill_all;
    match
      run { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
            (* paths from the root of a built checkout, where run.sh starts it *)
            facile = "_build/default/bin/facile.exe"; work_dir = ".perfbench" }
    with
    | () -> ()
    | exception e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 1
