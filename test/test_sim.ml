open Facile_x86
open Facile_uarch
open Facile_core
module Sim = Facile_sim.Sim

let parse_block s =
  match Asm.parse_block s with
  | Ok l -> l
  | Error m -> Alcotest.failf "parse error: %s" m

let skl = Config.by_arch Config.SKL
let hsw = Config.by_arch Config.HSW
let checkf = Alcotest.(check (float 1e-6))

let block cfg s = Block.of_instructions cfg (parse_block s)

let run ?(fidelity = Sim.Hardware) cfg mode s =
  let insts = parse_block s in
  let insts =
    match mode with
    | `Loop -> Facile_bhive.Genblock.looped insts
    | `Unrolled -> insts
  in
  Sim.cycles_per_iteration ~fidelity ~mode (Block.of_instructions cfg insts)

let known_tests =
  [ Alcotest.test_case "dependency chains" `Quick (fun () ->
        checkf "imul chain" 3.0 (run skl `Loop "imul rax, rbx");
        checkf "two-add chain" 2.0 (run skl `Loop "add rax, rbx\nadd rax, rcx");
        checkf "pointer chase"
          (float_of_int skl.Config.load_latency)
          (run skl `Loop "mov rax, qword ptr [rax]"));
    Alcotest.test_case "independent throughput" `Quick (fun () ->
        (* 4 independent adds on a 4-wide machine: 1 cycle/iter via DSB *)
        checkf "adds via DSB" 1.0
          (run skl `Loop "add rax, rbx\nadd rcx, rdx\nadd rsi, rdi\nadd r8, r9"));
    Alcotest.test_case "port serialization" `Quick (fun () ->
        (* 3 p5-only shuffles: 3 cycles regardless of fidelity *)
        let s = "pshufd xmm0, xmm1, 0\npshufd xmm2, xmm3, 0\npshufd xmm4, xmm5, 0" in
        checkf "hardware" 3.0 (run ~fidelity:Sim.Hardware skl `Loop s);
        checkf "model" 3.0 (run ~fidelity:Sim.Model skl `Loop s));
    Alcotest.test_case "divider occupancy" `Quick (fun () ->
        (* SKL divss occupancy 3: three independent divisions take about
           3 cycles each in steady state, not 1 *)
        let v =
          run skl `Loop "divss xmm0, xmm1\ndivss xmm2, xmm3\ndivss xmm4, xmm5"
        in
        Alcotest.(check bool) "divider is busy" true (v >= 8.0));
    Alcotest.test_case "predecode-bound unrolled" `Quick (fun () ->
        (* 4x3-byte adds: Predec = 1.25 and the sim agrees *)
        checkf "12-byte block" 1.25
          (run skl `Unrolled "add rax, rbx\nadd rcx, rdx\nadd rsi, rdi\nadd r8, r9"));
    Alcotest.test_case "LSD bubble" `Quick (fun () ->
        (* HSW, 5 adds + a branch that macro-fuses with the fifth:
           5 fused uops, LSD unrolls 4x -> ceil(20/4)/4 = 1.25 *)
        let v =
          run hsw `Loop
            "add rax, 1\nadd rbx, 1\nadd rcx, 1\nadd rdx, 1\nadd rsi, 1"
        in
        checkf "lsd unroll" 1.25 v);
    Alcotest.test_case "DSB 32-byte window quantization" `Quick (fun () ->
        (* 10 adds + fused jcc: 32-byte body spans two DSB windows, one
           window per cycle -> 3 cycles/iter even though 11 fused µops
           would fit in 2 issue groups of 6 *)
        let body =
          String.concat "\n" (List.init 10 (fun i ->
              Printf.sprintf "add r%d, 1" (8 + (i mod 7))))
        in
        let v = run skl `Loop body in
        Alcotest.(check bool)
          (Printf.sprintf "window-limited (%.2f)" v)
          true (v >= 2.9));
    Alcotest.test_case "microcoded decode stalls the unrolled path" `Quick
      (fun () ->
        (* a 32-bit division is MSROM: decode alone costs
           ceil(10/4) = 3 cycles per iteration *)
        let v = run skl `Unrolled "div ecx\nadd rax, rbx" in
        Alcotest.(check bool)
          (Printf.sprintf "decode-bound (%.2f)" v)
          true (v >= 3.0));
    Alcotest.test_case "macro fusion saves issue slots in the sim" `Quick
      (fun () ->
        (* 4 independent (cmp+jcc won't fuse on SNB for add) — compare
           SKL (fusion) against a no-fusion config of the same machine *)
        let insts =
          parse_block "add rax, 1\nadd rbx, 1\nadd rcx, 1\ncmp rdx, rsi"
          @ [ Inst.make (Inst.Jcc Inst.NE) [ Operand.imm (-14) ] ]
        in
        let fused = Block.of_instructions skl insts in
        let nofuse =
          Block.of_instructions { skl with Config.macro_fusion = false } insts
        in
        let t_fused = Sim.cycles_per_iteration ~mode:`Loop fused in
        let t_nofuse = Sim.cycles_per_iteration ~mode:`Loop nofuse in
        Alcotest.(check bool)
          (Printf.sprintf "fused %.2f <= unfused %.2f" t_fused t_nofuse)
          true (t_fused <= t_nofuse);
        Alcotest.(check int) "4 fused uops" 4 (Block.fused_uops fused);
        Alcotest.(check int) "5 unfused uops" 5 (Block.fused_uops nofuse));
    Alcotest.test_case "JCC erratum slows SKL loops" `Quick (fun () ->
        (* a loop whose branch crosses a 32-byte boundary must go through
           the legacy decoders on SKL *)
        let body =
          "add rax, 0x12345\nadd rbx, 0x12345\nadd rcx, 0x12345\nadd rdx, 0x12345\nadd rsi, rdi\nadd r8, r9"
        in
        let insts = Facile_bhive.Genblock.looped (parse_block body) in
        let b_skl = Block.of_instructions skl insts in
        Alcotest.(check bool) "affected" true (Block.jcc_erratum_affected b_skl);
        let skl_t = Sim.cycles_per_iteration ~mode:`Loop b_skl in
        let rkl_t =
          Sim.cycles_per_iteration ~mode:`Loop
            (Block.of_instructions (Config.by_arch Config.RKL) insts)
        in
        Alcotest.(check bool)
          (Printf.sprintf "SKL (%.2f) slower than RKL (%.2f)" skl_t rkl_t)
          true (skl_t > rkl_t)) ]

(* Facile is optimistic w.r.t. the hardware-fidelity simulator (§6.2):
   predictions never exceed measurements beyond a 1% + 0.05-cycle
   transient tolerance. *)
let optimism =
  Alcotest.test_case "facile is optimistic vs simulator" `Slow (fun () ->
      let cases = Facile_bhive.Suite.corpus ~seed:41 ~size:120 () in
      List.iter
        (fun (cfg : Config.t) ->
          List.iter
            (fun (c : Facile_bhive.Suite.case) ->
              List.iter
                (fun mode ->
                  let insts =
                    match mode with
                    | `Loop -> c.Facile_bhive.Suite.loop
                    | `Unrolled -> c.Facile_bhive.Suite.body
                  in
                  let b = Block.of_instructions cfg insts in
                  let p =
                    (Model.predict ~notion:(mode :> Model.notion) b)
                      .Model.cycles
                  in
                  let hw = Sim.cycles_per_iteration ~mode b in
                  if p > (hw *. 1.01) +. 0.05 then
                    Alcotest.failf
                      "case %d on %s (%s): facile %.3f > sim %.3f"
                      c.Facile_bhive.Suite.id cfg.Config.abbrev
                      (match mode with `Loop -> "L" | _ -> "U")
                      p hw)
                [ `Unrolled; `Loop ])
            cases)
        [ skl; hsw; Config.by_arch Config.SNB; Config.by_arch Config.RKL ])

let fidelity_agreement =
  Alcotest.test_case "model fidelity close to hardware fidelity" `Slow
    (fun () ->
      let cases = Facile_bhive.Suite.corpus ~seed:43 ~size:100 () in
      let errs =
        List.concat_map
          (fun (c : Facile_bhive.Suite.case) ->
            List.map
              (fun mode ->
                let insts =
                  match mode with
                  | `Loop -> c.Facile_bhive.Suite.loop
                  | `Unrolled -> c.Facile_bhive.Suite.body
                in
                let b = Block.of_instructions skl insts in
                let hw = Sim.cycles_per_iteration ~fidelity:Sim.Hardware ~mode b in
                let md = Sim.cycles_per_iteration ~fidelity:Sim.Model ~mode b in
                abs_float ((hw -. md) /. Float.max hw 1e-9))
              [ `Unrolled; `Loop ])
          cases
      in
      let mape = Facile_stats.Descriptive.mean errs in
      if mape > 0.05 then
        Alcotest.failf "uiCA-like diverges from oracle: MAPE %.2f%%"
          (100.0 *. mape))

let determinism =
  Alcotest.test_case "simulation is deterministic" `Quick (fun () ->
      let cases = Facile_bhive.Suite.corpus ~seed:47 ~size:20 () in
      List.iter
        (fun (c : Facile_bhive.Suite.case) ->
          let b = Block.of_instructions skl c.Facile_bhive.Suite.loop in
          let a = Sim.measure b and b' = Sim.measure b in
          assert (a = b'))
        cases)

let warmup_independence =
  Alcotest.test_case "longer measurement window agrees" `Slow (fun () ->
      let cases = Facile_bhive.Suite.corpus ~seed:53 ~size:30 () in
      List.iter
        (fun (c : Facile_bhive.Suite.case) ->
          let b = Block.of_instructions skl c.Facile_bhive.Suite.loop in
          let short = Sim.cycles_per_iteration ~mode:`Loop b in
          let long =
            Sim.cycles_per_iteration ~warmup:32 ~measure:96 ~mode:`Loop b
          in
          if abs_float (short -. long) > 0.05 *. Float.max short 1.0 then
            Alcotest.failf "case %d: unstable measurement %.3f vs %.3f"
              c.Facile_bhive.Suite.id short long)
        cases)

let suite =
  [ "sim.known", known_tests;
    "sim.properties",
    [ optimism; fidelity_agreement; determinism; warmup_independence ] ]
