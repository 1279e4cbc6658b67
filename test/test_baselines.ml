open Facile_x86
open Facile_uarch
open Facile_core
module Baselines = Facile_baselines.Baselines
module Sim = Facile_sim.Sim

let skl = Config.by_arch Config.SKL

let parse_block s =
  match Asm.parse_block s with
  | Ok l -> l
  | Error m -> Alcotest.failf "parse error: %s" m

let block cfg s = Block.of_instructions cfg (parse_block s)

let behaviour_tests =
  [ Alcotest.test_case "llvm-mca-like ignores the front end" `Quick (fun () ->
        (* an LCP-heavy block is predecoder-bound; the back-end-only
           model cannot see that *)
        let b = block skl "add ax, 0x1234\nmov bx, 300\nadd cx, 0x7fff" in
        let facile = (Model.predict ~notion:`Unrolled b).Model.cycles in
        let mca = Baselines.llvm_mca_like b in
        Alcotest.(check bool)
          (Printf.sprintf "facile %.2f > mca %.2f" facile mca)
          true (facile > mca *. 1.5));
    Alcotest.test_case "llvm-mca-like ignores macro fusion" `Quick (fun () ->
        (* cmp+jcc fuses into one µop; without fusion the issue bound is
           higher (9 cmps + fused jcc = 9 fused µops vs 10 unfused) *)
        let body =
          String.concat "\n"
            (List.concat
               (List.init 9 (fun _ -> [ "cmp rax, rbx" ])))
        in
        let insts = Facile_bhive.Genblock.looped (parse_block body) in
        let b = Block.of_instructions skl insts in
        let facile = (Model.predict ~notion:`Loop b).Model.cycles in
        let mca = Baselines.llvm_mca_like b in
        Alcotest.(check bool) "fusion-blind is slower" true (mca > facile));
    Alcotest.test_case "osaca-like spreads uops uniformly" `Quick (fun () ->
        (* one p5-only shuffle + three p0156 adds: optimal assignment
           gives 1.0; uniform spreading under-loads p5 *)
        let b =
          block skl "pshufd xmm0, xmm1, 0\nadd rax, rbx\nadd rcx, rdx\nadd rsi, rdi"
        in
        let osaca = Baselines.osaca_like b in
        (* p5 receives 1 + 3/4 = 1.75 fractional µops *)
        Alcotest.(check (float 1e-6)) "uniform spread" 1.75 osaca);
    Alcotest.test_case "iaca-like misses multi-instruction chains" `Quick
      (fun () ->
        (* a two-instruction dependence cycle through imul+mov: cycle
           latency 3, but no single RMW instruction shows it *)
        let b = block skl "imul rax, rbx, 9\nmov rbx, rax" in
        let facile = (Model.predict ~notion:`Unrolled b).Model.cycles in
        let iaca = Baselines.iaca_like b in
        Alcotest.(check bool)
          (Printf.sprintf "facile %.2f > iaca %.2f" facile iaca)
          true (facile > iaca));
    Alcotest.test_case "all baselines positive on corpus" `Quick (fun () ->
        let cases = Facile_bhive.Suite.corpus ~seed:61 ~size:60 () in
        List.iter
          (fun (c : Facile_bhive.Suite.case) ->
            let b = Block.of_instructions skl c.Facile_bhive.Suite.loop in
            List.iter
              (fun (name, f) ->
                let v = f b in
                if not (v > 0.0 && v < 1e6) then
                  Alcotest.failf "%s returned %f on case %d" name v
                    c.Facile_bhive.Suite.id)
              [ "llvm-mca-like", Baselines.llvm_mca_like;
                "osaca-like", Baselines.osaca_like;
                "iaca-like", Baselines.iaca_like ])
          cases) ]

let learned_tests =
  [ Alcotest.test_case "learned model trains and generalizes" `Slow (fun () ->
        let train_corpus = Facile_bhive.Suite.corpus ~seed:71 ~size:200 () in
        let test_corpus = Facile_bhive.Suite.corpus ~seed:72 ~size:60 () in
        let labelled corpus =
          List.map
            (fun (c : Facile_bhive.Suite.case) ->
              let b = Block.of_instructions skl c.Facile_bhive.Suite.body in
              (b, Sim.measure b))
            corpus
        in
        let model = Baselines.train (labelled train_corpus) in
        let test = labelled test_corpus in
        let mape =
          Facile_stats.Error_metrics.mape
            (List.map
               (fun (b, m) -> (m, Baselines.predict_learned model b))
               test)
        in
        (* a linear model should beat a constant predictor by far but
           stay well behind Facile *)
        if mape > 0.60 then
          Alcotest.failf "learned model too weak: MAPE %.1f%%" (100. *. mape);
        let facile_mape =
          Facile_stats.Error_metrics.mape
            (List.map
               (fun (b, m) ->
                 (m, (Model.predict ~notion:`Unrolled b).Model.cycles))
               test)
        in
        if facile_mape > mape then
          Alcotest.failf "facile (%.1f%%) should beat learned (%.1f%%)"
            (100. *. facile_mape) (100. *. mape));
    Alcotest.test_case "featurize is stable" `Quick (fun () ->
        let b = block skl "add rax, rbx\nmulsd xmm0, xmm1" in
        let f1 = Baselines.featurize b and f2 = Baselines.featurize b in
        Alcotest.(check bool) "deterministic" true (f1 = f2);
        Alcotest.(check bool) "has features" true (Array.length f1 > 10)) ]

let ranking =
  Alcotest.test_case "accuracy ordering: facile < baselines" `Slow (fun () ->
      (* the headline of Table 2: Facile (and the uiCA-like simulator)
         are an order of magnitude more accurate than the rest *)
      let cases = Facile_bhive.Suite.corpus ~seed:81 ~size:100 () in
      let samples =
        List.map
          (fun (c : Facile_bhive.Suite.case) ->
            let b = Block.of_instructions skl c.Facile_bhive.Suite.loop in
            (b, Sim.measure b))
          cases
      in
      let mape f =
        Facile_stats.Error_metrics.mape
          (List.map (fun (b, m) -> (m, f b)) samples)
      in
      let facile =
        mape (fun b -> (Model.predict ~notion:`Loop b).Model.cycles)
      in
      let mca = mape Baselines.llvm_mca_like in
      let osaca = mape Baselines.osaca_like in
      let iaca = mape Baselines.iaca_like in
      if not (facile < 0.05) then
        Alcotest.failf "facile MAPE %.1f%% too high" (100. *. facile);
      List.iter
        (fun (name, v) ->
          if not (v > facile *. 2.0) then
            Alcotest.failf "%s (%.1f%%) unexpectedly close to facile (%.1f%%)"
              name (100. *. v) (100. *. facile))
        [ "llvm-mca-like", mca; "osaca-like", osaca; "iaca-like", iaca ])

let suite =
  [ "baselines.behaviour", behaviour_tests;
    "baselines.learned", learned_tests @ [ ranking ] ]
