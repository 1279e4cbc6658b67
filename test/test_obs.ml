(* Observability layer and serving loop: JSON round trips, histogram
   quantiles, the NDJSON wire protocol (every request line yields a
   well-formed response or a typed error, never a crash), stats
   snapshot accounting, and the typed error -> exit code mapping. *)

open Facile_x86
open Facile_uarch
open Facile_core
module Json = Facile_obs.Json
module Obs = Facile_obs.Obs
module Serve = Facile_engine.Serve

let parse_ok s =
  match Json.parse s with
  | Ok v -> v
  | Error m -> Alcotest.failf "cannot parse %S: %s" s m

(* machine code for "add rax, rbx" *)
let valid_hex = "4801d8"

let get path j =
  List.fold_left
    (fun acc key ->
      match Option.bind acc (Json.member key) with
      | Some v -> Some v
      | None -> None)
    (Some j) path

let get_int path j =
  match Option.bind (get path j) Json.int_opt with
  | Some i -> i
  | None -> Alcotest.failf "no int at %s in %s" (String.concat "." path)
              (Json.to_string j)

let get_float path j =
  match Option.bind (get path j) Json.float_opt with
  | Some f -> f
  | None -> Alcotest.failf "no number at %s in %s" (String.concat "." path)
              (Json.to_string j)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let json_tests =
  [ Alcotest.test_case "round trips" `Quick (fun () ->
        List.iter
          (fun s ->
            let v = parse_ok s in
            Alcotest.(check bool)
              ("reprint/reparse " ^ s) true
              (Json.parse (Json.to_string v) = Ok v))
          [ {|{"id":1,"arch":"SKL","hex":"90"}|}; "[]"; "{}"; "null";
            "true"; "-42"; "3.5"; "1e3"; {|"a\nbé😀"|};
            {|[1,[2,[3,{"k":[]}]]]|} ]);
    Alcotest.test_case "rejects malformed" `Quick (fun () ->
        List.iter
          (fun s ->
            match Json.parse s with
            | Ok _ -> Alcotest.failf "accepted %S" s
            | Error _ -> ())
          [ ""; "{"; "[1,"; "tru"; "1.2.3"; "\"abc"; "{\"a\":}"; "nul";
            "1 2"; "{\"a\" 1}"; String.make 400 '[' ]);
    Alcotest.test_case "non-finite floats become null" `Quick (fun () ->
        Alcotest.(check string) "nan" "null" (Json.to_string (Json.Float Float.nan));
        Alcotest.(check string) "inf" "null"
          (Json.to_string (Json.Float Float.infinity))) ]

let qcheck_json_roundtrip =
  let gen =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          let leaf =
            oneof
              [ return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun i -> Json.Int i) small_signed_int;
                map
                  (fun f ->
                    if Float.is_finite f then Json.Float f else Json.Int 0)
                  float;
                map (fun s -> Json.Str s) string_printable ]
          in
          if n <= 0 then leaf
          else
            frequency
              [ 3, leaf;
                1,
                map (fun l -> Json.Arr l) (list_size (0 -- 4) (self (n / 2)));
                1,
                map
                  (fun l -> Json.Obj l)
                  (list_size (0 -- 4)
                     (pair string_printable (self (n / 2)))) ]))
  in
  QCheck.Test.make ~count:500
    ~name:"json print/parse round trip"
    (QCheck.make gen ~print:Json.to_string)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

(* Satellite of the flattening PR: predictions are serialized float by
   float, so the emitter's float repr must parse back to the exact same
   IEEE value (the shortest-round-trip logic in [Json.float_repr]). *)
let qcheck_float_identity =
  QCheck.Test.make ~count:1000 ~name:"json float print/parse identity"
    QCheck.float
    (fun f ->
      match Json.parse (Json.to_string (Json.Float f)) with
      | Ok (Json.Float g) -> Float.is_finite f && Float.equal g f
      | Ok (Json.Int i) -> Float.is_finite f && Float.equal (float_of_int i) f
      | Ok Json.Null -> not (Float.is_finite f)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)

let histogram_tests =
  [ Alcotest.test_case "counts and totals are exact" `Quick (fun () ->
        let h = Obs.Histogram.create () in
        List.iter (Obs.Histogram.record h) [ 5; 5; 5; 100; 1000 ];
        Alcotest.(check int) "count" 5 (Obs.Histogram.count h);
        Alcotest.(check int) "sum" 1115 (Obs.Histogram.sum_ns h));
    Alcotest.test_case "quantiles land in the right bucket" `Quick (fun () ->
        let h = Obs.Histogram.create () in
        List.iter (Obs.Histogram.record h) [ 5; 5; 5; 100; 1000 ];
        let p50 = Obs.Histogram.quantile h 0.5 in
        (* rank 3 of [5;5;5;100;1000] is 5, whose bucket is [4,8) *)
        Alcotest.(check bool) "p50 in bucket of 5" true (p50 >= 4.0 && p50 <= 8.0);
        let p100 = Obs.Histogram.quantile h 1.0 in
        (* 1000 lives in [512,1024) *)
        Alcotest.(check bool) "max in bucket of 1000" true
          (p100 >= 512.0 && p100 <= 1024.0);
        Alcotest.(check (float 1e-9)) "empty histogram" 0.0
          (Obs.Histogram.quantile (Obs.Histogram.create ()) 0.5));
    Alcotest.test_case "reset keeps registered entries alive" `Quick (fun () ->
        let h = Obs.histogram "test.reset-probe" in
        Obs.Histogram.record h 10;
        Obs.reset ();
        Alcotest.(check int) "zeroed" 0 (Obs.Histogram.count h);
        Obs.Histogram.record h 10;
        (* the snapshot must still see the same histogram *)
        let snap = Obs.snapshot () in
        Alcotest.(check int) "still registered" 1
          (get_int [ "spans"; "test.reset-probe"; "count" ] snap)) ]

(* ------------------------------------------------------------------ *)
(* Serving loop: the wire never crashes and errors are typed           *)

let wire_kinds =
  [ "bad_hex"; "parse_error"; "unknown_arch"; "unknown_mode";
    "encode_error"; "too_large"; "timeout"; "bad_request"; "retry_after";
    "internal" ]

let well_formed_response (resp : Json.t) =
  (* every response reprints to parseable JSON and is a prediction, an
     error of a known kind, or a stats object *)
  match Json.parse (Json.to_string resp) with
  | Error _ -> false
  | Ok _ ->
    (match Json.member "error" resp with
     | Some e ->
       (match Option.bind (Json.member "kind" e) Json.string_opt with
        | Some k -> List.mem k wire_kinds
        | None -> false)
     | None ->
       Json.member "cycles" resp <> None || Json.member "stats" resp <> None)

let qcheck_wire_garbage serve =
  QCheck.Test.make ~count:300
    ~name:"serve survives arbitrary request lines"
    QCheck.(string)
    (fun line ->
      let resp = Serve.handle_line serve line in
      well_formed_response resp)

let qcheck_wire_requests serve =
  let gen =
    QCheck.Gen.(
      let* arch = oneofl [ "SKL"; "HSW"; "RKL"; "ZZZ"; "" ] in
      let* mode = oneofl [ "auto"; "loop"; "unroll"; "spin" ] in
      let* hex = oneofl [ valid_hex; "90"; "zz"; "4"; "62" ] in
      return (arch, mode, hex))
  in
  QCheck.Test.make ~count:200
    ~name:"wire requests answer with a prediction or the right error kind"
    (QCheck.make gen ~print:(fun (a, m, h) -> Printf.sprintf "%s/%s/%s" a m h))
    (fun (arch, mode, hex) ->
      let req =
        Json.Obj
          [ "id", Json.Int 7; "arch", Json.Str arch; "mode", Json.Str mode;
            "hex", Json.Str hex ]
      in
      let resp = Serve.handle_line serve (Json.to_string req) in
      if not (well_formed_response resp) then false
      else begin
        let error_kind =
          Option.bind (get [ "error"; "kind" ] resp) Json.string_opt
        in
        (* the service checks arch, then mode, then input *)
        let expected =
          if Config.of_abbrev arch = None then Some "unknown_arch"
          else if not (List.mem mode [ "auto"; "loop"; "unroll" ]) then
            Some "unknown_mode"
          else if String.contains hex 'z' then Some "bad_hex"
          else if String.length hex mod 2 = 1 then Some "bad_hex"
          else None (* either a prediction or a typed decode error *)
        in
        match expected, error_kind with
        | Some k, Some k' -> k = k'
        | Some _, None -> false
        | None, Some k -> k = "encode_error"
        | None, None ->
          (* echoed id and a numeric cycles field *)
          get [ "id" ] resp = Some (Json.Int 7)
          && Option.bind (get [ "cycles" ] resp) Json.float_opt <> None
      end)

(* ------------------------------------------------------------------ *)
(* Stats snapshot accounting                                           *)

let stats_snapshot =
  Alcotest.test_case "stats counts requests, errors, cache, latency" `Quick
    (fun () ->
      let t =
        Serve.of_config { Serve.default_config with Serve.workers = Some 1 }
      in
      Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
      let send line = ignore (Serve.handle_line t line) in
      let req ?(arch = "SKL") hex =
        Json.to_string
          (Json.Obj [ "arch", Json.Str arch; "hex", Json.Str hex ])
      in
      (* 3x the same SKL block: 1 miss + 2 hits *)
      send (req valid_hex);
      send (req valid_hex);
      send (req valid_hex);
      (* 2x the same bytes on HSW: a distinct cache key, 1 miss + 1 hit *)
      send (req ~arch:"HSW" valid_hex);
      send (req ~arch:"HSW" valid_hex);
      (* 2 typed errors and 1 malformed line *)
      send (req "zz");
      send (req "zz");
      send "definitely not json";
      let resp = Serve.handle_line t {|{"cmd":"stats"}|} in
      let s =
        match Json.member "stats" resp with
        | Some s -> s
        | None -> Alcotest.failf "no stats in %s" (Json.to_string resp)
      in
      Alcotest.(check int) "total" 9 (get_int [ "requests"; "total" ] s);
      Alcotest.(check int) "predicted" 5
        (get_int [ "requests"; "predicted" ] s);
      Alcotest.(check int) "stats served" 1
        (get_int [ "requests"; "stats" ] s);
      Alcotest.(check int) "SKL" 3 (get_int [ "requests"; "by_arch"; "SKL" ] s);
      Alcotest.(check int) "HSW" 2 (get_int [ "requests"; "by_arch"; "HSW" ] s);
      Alcotest.(check int) "errors" 3 (get_int [ "errors"; "total" ] s);
      Alcotest.(check int) "bad_hex" 2
        (get_int [ "errors"; "by_kind"; "bad_hex" ] s);
      Alcotest.(check int) "bad_request" 1
        (get_int [ "errors"; "by_kind"; "bad_request" ] s);
      Alcotest.(check int) "cache hits" 3 (get_int [ "cache"; "hits" ] s);
      Alcotest.(check int) "cache misses" 2 (get_int [ "cache"; "misses" ] s);
      Alcotest.(check (float 1e-9)) "hit rate" 0.6
        (get_float [ "cache"; "hit_rate" ] s);
      (* every line before the stats request has a recorded latency *)
      Alcotest.(check int) "latency count" 8
        (get_int [ "latency_us"; "count" ] s);
      Alcotest.(check bool) "p50 <= p99" true
        (get_float [ "latency_us"; "p50" ] s
         <= get_float [ "latency_us"; "p99" ] s);
      (* component spans are attributed in the snapshot *)
      Alcotest.(check bool) "predec span present" true
        (get_int [ "process"; "spans"; "model.predec"; "count" ] s > 0))

(* ------------------------------------------------------------------ *)
(* Error taxonomy and exit codes                                       *)

let err_tests =
  [ Alcotest.test_case "exit codes are distinct and reserved-safe" `Quick
      (fun () ->
        let codes = List.map Err.exit_code Err.all_kinds in
        Alcotest.(check int) "distinct" (List.length codes)
          (List.length (List.sort_uniq compare codes));
        List.iter
          (fun c ->
            Alcotest.(check bool) "not 0/1/2 and below cmdliner's 124" true
              (c > 2 && c < 124))
          codes);
    Alcotest.test_case "kind names round trip" `Quick (fun () ->
        List.iter
          (fun k ->
            Alcotest.(check bool) "kind_of_name inverts kind_name" true
              (Err.kind_of_name (Err.kind_name k) = Some k))
          Err.all_kinds);
    Alcotest.test_case "hex decoding reports position" `Quick (fun () ->
        match Hex.decode "90 q0" with
        | Ok _ -> Alcotest.fail "accepted bad hex"
        | Error e ->
          Alcotest.(check bool) "kind" true (e.Err.kind = Err.Bad_hex);
          Alcotest.(check (option int)) "pos" (Some 3) e.Err.pos);
    Alcotest.test_case "prediction_to_json rejects non-finite values" `Quick
      (fun () ->
        let cfg = Config.by_arch Config.SKL in
        let code =
          match Hex.decode valid_hex with Ok c -> c | Error _ -> assert false
        in
        let p = Model.predict (Block.of_bytes cfg code) in
        List.iter
          (fun bad ->
            let p =
              Model.make ~cycles:bad ~value:(Model.value p)
                ~bottlenecks:(Model.bottlenecks p) ~fe_path:p.Model.fe_path
            in
            match Model.prediction_to_json p with
            | _ -> Alcotest.failf "accepted cycles = %h" bad
            | exception Err.Error e ->
              Alcotest.(check bool) "internal kind" true
                (e.Err.kind = Err.Internal))
          [ Float.nan; Float.infinity; Float.neg_infinity ]) ]

(* ------------------------------------------------------------------ *)
(* Serialization: the serve wire format cannot drift from --json       *)

let no_drift =
  Alcotest.test_case "serve response equals Model.prediction_to_json" `Quick
    (fun () ->
      let cfg = Config.by_arch Config.SKL in
      let code =
        match Hex.decode valid_hex with Ok c -> c | Error _ -> assert false
      in
      let p = Model.predict (Block.of_bytes cfg code) in
      let t =
        Serve.of_config { Serve.default_config with Serve.workers = Some 1 }
      in
      Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
      let resp =
        Serve.handle_line t
          (Json.to_string (Json.Obj [ "hex", Json.Str valid_hex ]))
      in
      let expected =
        match Model.prediction_to_json p with
        | Json.Obj fields -> Json.Obj (("id", Json.Null) :: fields)
        | j -> j
      in
      Alcotest.(check string) "identical wire object"
        (Json.to_string expected) (Json.to_string resp))

(* ------------------------------------------------------------------ *)
(* Model.predict ~notion unification                                   *)

let notion_tests =
  [ Alcotest.test_case "predict ~notion matches the notion Model.resolve picks"
      `Quick (fun () ->
        let cfg = Config.by_arch Config.SKL in
        List.iter
          (fun src ->
            let b =
              match Block.analyze cfg (`Asm src) with
              | Ok b -> b
              | Error e -> Alcotest.failf "analyze: %s" (Err.to_string e)
            in
            let resolved = Model.resolve `Auto b in
            Alcotest.(check string) (src ^ ": Auto resolves on the branch")
              (if Block.ends_in_branch b then "loop" else "unroll")
              (Model.notion_name resolved);
            List.iter
              (fun n ->
                Alcotest.(check string) (src ^ ": a forced notion stands")
                  (Model.notion_name n)
                  (Model.notion_name (Model.resolve n b)))
              [ `Unrolled; `Loop ];
            Alcotest.(check (float 1e-12)) (src ^ ": Auto dispatch")
              (Model.predict ~notion:(resolved :> Model.notion) b).Model.cycles
              (Model.predict ~notion:`Auto b).Model.cycles)
          [ "add rax, rbx\nimul rcx, rdx";
            "add rax, 8\ncmp rax, rbx\njne -10" ];
        (* the one parser round-trips the one printer *)
        List.iter
          (fun n ->
            Alcotest.(check bool) (Model.notion_name n) true
              (Model.notion_of_string (Model.notion_name n) = Ok n))
          [ `Unrolled; `Loop; `Auto ];
        match Model.notion_of_string "spin" with
        | Error e ->
          Alcotest.(check bool) "unknown_mode" true
            (e.Err.kind = Err.Unknown_mode)
        | Ok _ -> Alcotest.fail "spin parsed as a notion") ]

let suite =
  let serve =
    Serve.of_config { Serve.default_config with Serve.workers = Some 1 }
  in
  (* shared long-lived instance for the qcheck wire tests: exercising
     one state machine across hundreds of mixed requests is exactly
     the serving scenario *)
  [ "obs.json",
    QCheck_alcotest.to_alcotest qcheck_json_roundtrip
    :: QCheck_alcotest.to_alcotest qcheck_float_identity
    :: json_tests;
    "obs.histogram", histogram_tests;
    "obs.wire",
    [ QCheck_alcotest.to_alcotest (qcheck_wire_garbage serve);
      QCheck_alcotest.to_alcotest (qcheck_wire_requests serve);
      stats_snapshot; no_drift ];
    "obs.errors", err_tests;
    "obs.model", notion_tests ]
