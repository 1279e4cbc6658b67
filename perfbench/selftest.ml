(* Self-tests of the benchmark's own logic: the statistics it reports,
   the verifier it trusts, the streams it generates, and the trace
   table's arithmetic.  Run with `dune test perfbench`. *)

open Perfbench
module Store = Facile_store.Store
module Codec = Facile_store.Codec
module Serve = Facile_engine.Serve
module Json = Facile_obs.Json

let facile = "../bin/facile.exe"
let close = Alcotest.float 1e-9

(* ----- statistics ----- *)

let test_percentile () =
  let a = [| 1.; 2.; 3.; 4. |] in
  Alcotest.check close "p50 of 1..4" 2.5 (Stats.percentile a 0.5);
  Alcotest.check close "p0" 1. (Stats.percentile a 0.);
  Alcotest.check close "p100" 4. (Stats.percentile a 1.);
  Alcotest.check close "p25 of 1..4" 1.75 (Stats.percentile a 0.25);
  let h = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p99 of 1..100" 99.01 (Stats.percentile h 0.99);
  Alcotest.check close "single sample" 7. (Stats.percentile [| 7. |] 0.99);
  Alcotest.check close "median, unsorted input" 2. (Stats.median [| 3.; 1.; 2. |]);
  Alcotest.check close "median, even count" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check close "mean" 2.5 (Stats.mean a);
  Alcotest.check_raises "empty sample" (Invalid_argument "Stats.percentile: empty sample")
    (fun () -> ignore (Stats.percentile [||] 0.5))

let test_beyond () =
  let a = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check int) "1..1000 has 10 samples beyond its p99" 10 (Stats.beyond a 0.99);
  Alcotest.(check int) "one sample has none beyond" 0 (Stats.beyond [| 3. |] 0.99)

let test_summary () =
  (* four operations in a two-second phase *)
  let lat_ns = [| 4000; 1000; 3000; 2000 |] in
  let sum = Stats.summarize ~elapsed_ns:2_000_000_000 ~lat_ns ~cpu_us:600. in
  Alcotest.check close "rate over the whole phase" 2. sum.Stats.ops_per_s;
  Alcotest.check close "p50" 2.5 sum.Stats.p50_us;
  Alcotest.check close "p99" 3.97 sum.Stats.p99_us;
  Alcotest.check close "mean" 2.5 sum.Stats.mean_us;
  Alcotest.check close "cpu per op" 150. sum.Stats.cpu_us_per_op;
  Alcotest.(check int) "p99 samples" 4 sum.Stats.samples;
  let none = Stats.summarize ~elapsed_ns:1 ~lat_ns:[||] ~cpu_us:5. in
  Alcotest.(check int) "no operation, no samples" 0 none.Stats.samples

let test_per_second () =
  (* three seconds holding 4, 2 and 1 operations; the last also counts
     one completed after the phase's last whole second *)
  let s = 1_000_000_000 in
  let done_ns = [| 1; 2; 3; s - 1; s; s + 5; (2 * s) + 1; (3 * s) + 7 |] in
  let lat_ns = [| 1000; 2000; 3000; 4000; 10_000; 30_000; 5000; 7000 |] in
  let ws =
    Stats.per_second ~done_ns ~lat_ns ~cpu_us:[| 0.; 400.; 500.; 900. |]
      ~steal:[| 0.; 0.2; 0. |]
  in
  Alcotest.(check (list int)) "ops per second" [ 4; 2; 2 ]
    (Array.to_list (Array.map (fun (w : Stats.second) -> w.Stats.ops) ws));
  Alcotest.(check (list (float 1e-9))) "cpu per op" [ 100.; 50.; 200. ]
    (Array.to_list (Array.map (fun (w : Stats.second) -> w.Stats.cpu_us_per_op) ws));
  Alcotest.(check (list (float 1e-9))) "p50 per second" [ 2.5; 20.; 6. ]
    (Array.to_list (Array.map (fun (w : Stats.second) -> w.Stats.p50_us) ws));
  let quiet = Stats.per_second ~done_ns:[||] ~lat_ns:[||] ~cpu_us:[| 0.; 0. |] ~steal:[| 0. |] in
  Alcotest.check close "an empty second reads 0" 0. quiet.(0).Stats.p99_us

(* ----- the verifier ----- *)

let reply ~id cycles =
  Printf.sprintf
    "{\"id\":%d,\"cycles\":%.17g,\"bottlenecks\":[\"Ports\"],\"values\":{\"Predec\":1.0,\"Ports\":%.17g},\"fe_path\":\"none\",\"proto\":1}"
    id cycles cycles

let verdict = Alcotest.(option string)

let test_verifier () =
  let c = 2.3333333333333335 in
  Alcotest.check verdict "exact reply accepted" None (Reply.check ~id:7 ~cycles:c (reply ~id:7 c));
  Alcotest.check verdict "one ULP high" (Some "wrong_cycles")
    (Reply.check ~id:7 ~cycles:c (reply ~id:7 (Float.succ c)));
  Alcotest.check verdict "one ULP low" (Some "wrong_cycles")
    (Reply.check ~id:7 ~cycles:c (reply ~id:7 (Float.pred c)));
  Alcotest.check verdict "wrong id" (Some "wrong_id") (Reply.check ~id:7 ~cycles:c (reply ~id:8 c));
  Alcotest.check verdict "negative warm-up id" None (Reply.check ~id:(-3) ~cycles:c (reply ~id:(-3) c));
  Alcotest.check verdict "error reply"
    (Some "error:bad_hex")
    (Reply.check ~id:7 ~cycles:c
       "{\"id\":7,\"error\":{\"kind\":\"bad_hex\",\"msg\":\"invalid hex character 'z'\",\"pos\":0},\"proto\":1}");
  Alcotest.check verdict "truncated reply" (Some "garbled") (Reply.check ~id:7 ~cycles:c "{\"id\":7,");
  Alcotest.check verdict "not json" (Some "garbled") (Reply.check ~id:7 ~cycles:c "ok")

(* The verifier against the server's real encoding of a real answer. *)
let test_verifier_on_wire () =
  let k = (Workload.warmup ~seed:5).(4) in
  let cycles = Workload.reference k in
  let srv = Serve.of_config Serve.default_config in
  Fun.protect ~finally:(fun () -> Serve.shutdown srv) (fun () ->
      let line = Workload.request_line ~id:41 k in
      let resp =
        Json.to_string
          (Serve.with_proto (Serve.handle_line srv (String.sub line 0 (String.length line - 1))))
      in
      Alcotest.check verdict "served reply matches its reference" None
        (Reply.check ~id:41 ~cycles resp);
      Alcotest.check verdict "served reply against a reference one ULP off"
        (Some "wrong_cycles")
        (Reply.check ~id:41 ~cycles:(Float.succ cycles) resp))

(* ----- streams ----- *)

let key_id (k : Workload.key) = (k.Workload.cfg.Facile_uarch.Config.abbrev, k.Workload.bytes)

(* No block recurs, on any µarch (so no (µarch, bytes) key does either),
   and none is a warm-up block. *)
let distinct name keys ~seed =
  let seen = Hashtbl.create 1024 in
  Array.iter
    (fun (k : Workload.key) ->
      if Hashtbl.mem seen k.Workload.bytes then
        Alcotest.failf "%s repeats the block %s" name (Workload.hex k);
      Hashtbl.add seen k.Workload.bytes ())
    keys;
  Array.iter
    (fun (k : Workload.key) ->
      if Hashtbl.mem seen k.Workload.bytes then Alcotest.failf "a warm-up block recurs in %s" name)
    (Workload.warmup ~seed)

let test_miss_distinct () = distinct "serve_miss" (Workload.miss ~seed:3 ~max_ops:20_000) ~seed:3

let test_batch_distinct () =
  let chunks = Workload.batch_chunks ~seed:3 ~max_ops:600 in
  Array.iter
    (fun c ->
      Alcotest.(check int) "chunk size" Workload.chunk_size (Array.length c);
      Array.iter
        (fun (k : Workload.key) ->
          if k.Workload.cfg != c.(0).Workload.cfg then Alcotest.fail "a chunk mixes µarchs")
        c)
    chunks;
  distinct "batch" (Array.concat (Array.to_list chunks)) ~seed:3

let test_warmup_spans_archs () =
  let names ks = List.sort compare (Array.to_list (Array.map (fun k -> fst (key_id k)) ks)) in
  let all = names (Array.map (fun cfg -> Workload.key cfg "") Workload.archs) in
  Alcotest.(check (list string)) "warm-ups: one per µarch" all (names (Workload.warmup ~seed:9));
  let hit = Workload.hit ~seed:9 ~max_ops:1 in
  Alcotest.(check (list string)) "serve_hit warm-ups: one per µarch" all
    (names (Array.sub hit.Workload.set 0 Workload.n_archs))

let stream_lines seed n =
  let hit = Workload.hit ~seed ~max_ops:n in
  let fresh = Workload.miss ~seed ~max_ops:n in
  String.concat ""
    (List.init n (fun i ->
         Workload.request_line ~id:i hit.Workload.set.(hit.Workload.draws.(i))
         ^ Workload.request_line ~id:i fresh.(i)))

let test_seeded_streams () =
  Alcotest.(check string) "same seed, byte-identical requests" (stream_lines 11 2000)
    (stream_lines 11 2000);
  Alcotest.(check string) "a longer stream extends a shorter one"
    (stream_lines 11 300) (String.sub (stream_lines 11 2000) 0 (String.length (stream_lines 11 300)));
  if stream_lines 11 200 = stream_lines 12 200 then
    Alcotest.fail "two seeds gave the same requests"

(* serve_hit's premise: every timed request is a key of the store the
   benchmark prepared with this build's `facile batch --store`. *)
let test_hit_keys_in_store () =
  let hit = Workload.hit ~seed:2 ~max_ops:20_000 in
  let path = "selftest-hit.store" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Served.prepare_store ~facile path hit.Workload.set;
      let report =
        match Store.load path with
        | Ok r -> r
        | Error e -> Alcotest.failf "store: %s" (Facile_x86.Err.to_string e)
      in
      let stored = Hashtbl.create 4096 in
      List.iter
        (fun r ->
          let (arch, _, _, bytes), _ = Codec.to_memo r in
          Hashtbl.replace stored (Facile_uarch.Config.arch_name arch, bytes) ())
        report.Store.records;
      Alcotest.(check int) "one record per set key" Workload.hit_set_size (Hashtbl.length stored);
      let in_store (k : Workload.key) =
        Hashtbl.mem stored (Facile_uarch.Config.arch_name k.Workload.cfg.Facile_uarch.Config.arch, k.Workload.bytes)
      in
      Array.iteri
        (fun i d ->
          if not (in_store hit.Workload.set.(d)) then
            Alcotest.failf "request %d is not in the prepared store" i)
        hit.Workload.draws)

(* ----- the trace table ----- *)

let test_spans_self_time () =
  let tr = Spans.create () in
  let root = Spans.open_ tr ~name:(Spans.name_id tr "op") ~op:0 ~parent:(-1) in
  let child = Spans.open_ tr ~name:(Spans.name_id tr "leaf") ~op:0 ~parent:root in
  Spans.close tr child;
  Spans.close tr root;
  let self = Spans.self_ns tr in
  Alcotest.(check int) "root self = duration - child" (tr.Spans.t1.(0) - tr.Spans.t0.(0)
                                                       - (tr.Spans.t1.(1) - tr.Spans.t0.(1))) self.(0);
  Alcotest.(check bool) "self times are non-negative" true (self.(0) >= 0 && self.(1) >= 0)

let sum_rows rows =
  List.fold_left
    (fun a (r : Layers.row) -> if r.Layers.kind = Layers.Aside then a else a +. r.Layers.us)
    0. rows

let test_rows_sum () =
  let per_op_us =
    [ ("op", 0.4); ("op.total", 60.); ("untraced", 55.); ("handle_line", 58.);
      ("json.parse", 3.); ("supervise.handoff", 20.); ("hex.decode", 2.);
      ("block.of_bytes", 20.); ("engine.predict", 10.); ("json.print", 4.6);
      ("model.predict", 8.); ("model.ports", 3.); ("model.precedence", 4.) ]
  in
  let r = { Replay.ops = 1; per_op_us; spans = Spans.create (); pool_size = 2 } in
  let rows, values = Layers.compute ~served:true ~e2e_us:150. r in
  Alcotest.check (Alcotest.float 1e-6) "served rows sum to the end-to-end mean" 150. (sum_rows rows);
  Alcotest.check (Alcotest.float 1e-6) "unattributed is the root's own time" 0.4
    (List.assoc "unattributed_us" values);
  Alcotest.check (Alcotest.float 1e-6) "overhead = traced - untraced" 5.
    (List.assoc "trace.overhead_us" values);
  let per_op_us =
    [ ("op", 1.); ("op.total", 3000.); ("untraced", 2900.); ("block.of_bytes", 2000.);
      ("engine.predict_batch", 999.); ("model.predict", 1000.) ]
  in
  let rows, values =
    Layers.compute ~served:false ~e2e_us:2800. { r with Replay.per_op_us }
  in
  Alcotest.check (Alcotest.float 1e-6) "batch rows sum to the end-to-end mean" 2800. (sum_rows rows);
  Alcotest.check (Alcotest.float 1e-6) "pool efficiency" (1000. /. (999. *. 2.))
    (List.assoc "engine.pool_efficiency" values)

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "percentiles on known arrays" `Quick test_percentile;
          Alcotest.test_case "p99 support count" `Quick test_beyond;
          Alcotest.test_case "whole-phase figures" `Quick test_summary;
          Alcotest.test_case "per-second diagnostics" `Quick test_per_second ] );
      ( "verify",
        [ Alcotest.test_case "rejects one ULP and a wrong id" `Quick test_verifier;
          Alcotest.test_case "accepts the server's own encoding" `Quick test_verifier_on_wire ] );
      ( "streams",
        [ Alcotest.test_case "serve_miss repeats no block" `Quick test_miss_distinct;
          Alcotest.test_case "batch repeats no block" `Quick test_batch_distinct;
          Alcotest.test_case "warm-ups span the µarchs" `Quick test_warmup_spans_archs;
          Alcotest.test_case "a seed fixes the request bytes" `Quick test_seeded_streams;
          Alcotest.test_case "serve_hit keys are in its store" `Quick test_hit_keys_in_store ] );
      ( "trace",
        [ Alcotest.test_case "span self time" `Quick test_spans_self_time;
          Alcotest.test_case "table rows sum to the mean" `Quick test_rows_sum ] ) ]
