(* The served hit path.  The memo cache is keyed on (µarch, requested
   mode, raw bytes), so a hex request that hits is answered without
   decoding its block.  These tests pin that such a hit answers
   exactly what the miss did (prediction, too_large, timeout), which
   fault points it passes, and how it is counted. *)

open Facile_uarch
module Json = Facile_obs.Json
module Engine = Facile_engine.Engine
module Fault = Facile_engine.Fault
module Serve = Facile_engine.Serve

let with_serve ?deadline_ms ?(limits = Serve.default_limits) f =
  let t =
    Serve.of_config
      { Serve.default_config with Serve.workers = Some 1; deadline_ms; limits }
  in
  Fun.protect ~finally:(fun () -> Serve.shutdown t) (fun () -> f t)

(* A fresh server whose cache holds [from]'s entries, as a warm
   restart from the store would leave it. *)
let with_seeded ?deadline_ms ?limits from f =
  with_serve ?deadline_ms ?limits (fun t ->
      Engine.memo_seed (Serve.engine t)
        (Engine.memo_entries (Serve.engine from));
      f t)

(* The response line exactly as the wire carries it. *)
let answer t line = Json.to_string (Serve.with_proto (Serve.handle_line t line))

let req ?(arch = "SKL") ?(mode = "auto") hex =
  Json.to_string
    (Json.Obj
       [ "id", Json.Int 1; "arch", Json.Str arch; "mode", Json.Str mode;
         "hex", Json.Str hex ])

let error_kind line =
  match Json.parse line with
  | Ok j ->
    Option.bind
      (Option.bind (Json.member "error" j) (Json.member "kind"))
      Json.string_opt
  | Error m -> Alcotest.failf "unparseable response %S: %s" line m

let has_cycles line =
  match Json.parse line with
  | Ok j -> Json.member "cycles" j <> None
  | Error _ -> false

let to_hex s =
  String.concat "" (List.init (String.length s) (fun i ->
      Printf.sprintf "%02x" (Char.code s.[i])))

let cache t = Engine.cache_stats (Serve.engine t)

(* The fault table is process-global: always clear it, also on
   failure, or later suites inherit the injection. *)
let with_fault spec f =
  Fault.configure spec;
  Fun.protect ~finally:Fault.clear f

let fault_hits p =
  match List.assoc_opt p (Fault.snapshot ()) with
  | Some (_, hits) -> hits
  | None -> 0

let modes = [ "loop"; "unroll"; "auto" ]

(* add rax, rbx three times: three instructions *)
let three_adds = "4801d84801d84801d8"

(* ------------------------------------------------------------------ *)

let gen_block =
  let open QCheck in
  make
    ~print:(fun (seed, p, looped, len) ->
      Printf.sprintf "seed=%d profile=%s looped=%b len=%d" seed
        (Facile_bhive.Genblock.profile_name p) looped len)
    Gen.(
      quad (int_bound 100000)
        (oneofl Facile_bhive.Genblock.all_profiles)
        bool (int_range 1 12))

let qcheck_cold_warm_seeded =
  QCheck.Test.make ~count:50
    ~name:"cold, warm and seeded answers are byte-identical"
    gen_block (fun (seed, profile, looped, len) ->
      let rng = Facile_bhive.Prng.create (seed + 1) in
      let body = Facile_bhive.Genblock.body rng profile ~allow_fma:false ~len in
      let insts = if looped then Facile_bhive.Genblock.looped body else body in
      let hex = to_hex (fst (Facile_x86.Encode.encode_block insts)) in
      let lines =
        List.concat_map
          (fun (cfg : Config.t) ->
            List.map (fun mode -> req ~arch:cfg.Config.abbrev ~mode hex) modes)
          Config.all
      in
      with_serve (fun cold ->
          let first = List.map (answer cold) lines in
          let second = List.map (answer cold) lines in
          let c = cache cold in
          if c.Engine.misses <> List.length lines then
            QCheck.Test.fail_reportf "cold server: %d misses for %d keys"
              c.Engine.misses (List.length lines);
          with_seeded cold (fun warm ->
              let seeded = List.map (answer warm) lines in
              let w = cache warm in
              if w.Engine.misses <> 0 then
                QCheck.Test.fail_reportf "seeded server: %d misses"
                  w.Engine.misses;
              List.for_all has_cycles first
              && first = second && first = seeded)))

let too_large_on_a_hit =
  Alcotest.test_case "a hit over --max-insts answers the cold too_large"
    `Quick (fun () ->
      let limits = { Serve.default_limits with Serve.max_insts = 2 } in
      let cold =
        with_serve ~limits (fun t -> answer t (req three_adds))
      in
      Alcotest.(check (option string)) "cold refusal" (Some "too_large")
        (error_kind cold);
      with_serve (fun unlimited ->
          Alcotest.(check bool) "unlimited predicts" true
            (has_cycles (answer unlimited (req three_adds)));
          with_seeded ~limits unlimited (fun t ->
              Alcotest.(check string) "same line as cold" cold
                (answer t (req three_adds));
              let c = cache t in
              Alcotest.(check int) "answered from the cache" 1 c.Engine.hits;
              Alcotest.(check int) "nothing computed" 0 c.Engine.misses)))

let deadline_on_a_seeded_server =
  Alcotest.test_case "deadline 0 times out hits and misses alike" `Quick
    (fun () ->
      with_serve (fun warm ->
          let warm_lines = List.map (fun mode -> req ~mode "4801d8") modes in
          List.iter (fun l -> ignore (answer warm l)) warm_lines;
          with_seeded ~deadline_ms:0 warm (fun t ->
              List.iter
                (fun l ->
                  Alcotest.(check (option string)) l (Some "timeout")
                    (error_kind (answer t l)))
                (req "4829d8" :: warm_lines))))

(* A hit never decodes, so an armed decode fault cannot reach it. *)
let decode_fault_skips_hits =
  Alcotest.test_case "a decode fault spares a cached line" `Quick (fun () ->
      with_serve (fun t ->
          Alcotest.(check bool) "warm-up predicts" true
            (has_cycles (answer t (req "4801d8")));
          with_fault "decode:1:7" (fun () ->
              Alcotest.(check bool) "cached line still predicts" true
                (has_cycles (answer t (req "4801d8")));
              Alcotest.(check (option string)) "new block hits the fault"
                (Some "internal")
                (error_kind (answer t (req "4829d8"))))))

let accounting =
  Alcotest.test_case "a hit counts one hit and one predict pass" `Quick
    (fun () ->
      with_serve (fun t ->
          with_fault "predict:0:1,decode:0:1" (fun () ->
              let step line =
                let c0 = cache t in
                let p0 = fault_hits "predict" and d0 = fault_hits "decode" in
                Alcotest.(check bool) "predicts" true (has_cycles (answer t line));
                let c1 = cache t in
                ( c1.Engine.hits - c0.Engine.hits,
                  c1.Engine.misses - c0.Engine.misses,
                  fault_hits "predict" - p0,
                  fault_hits "decode" - d0 )
              in
              let counts = Alcotest.(pair (pair int int) (pair int int)) in
              let split (h, m, p, d) = ((h, m), (p, d)) in
              Alcotest.(check counts) "miss: hits, misses / predict, decode"
                ((0, 1), (1, 1)) (split (step (req "4801d8")));
              Alcotest.(check counts) "hit: hits, misses / predict, decode"
                ((1, 0), (1, 0)) (split (step (req "4801d8"))))))

let suite =
  [ ( "engine.serve_hit",
      [ QCheck_alcotest.to_alcotest qcheck_cold_warm_seeded;
        too_large_on_a_hit; deadline_on_a_seeded_server;
        decode_fault_skips_hits; accounting ] ) ]
