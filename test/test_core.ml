open Facile_x86
open Facile_uarch
open Facile_core
open Facile_reference

let parse_block s =
  match Asm.parse_block s with
  | Ok l -> l
  | Error m -> Alcotest.failf "parse error: %s" m

let skl = Config.by_arch Config.SKL
let hsw = Config.by_arch Config.HSW
let rkl = Config.by_arch Config.RKL
let snb = Config.by_arch Config.SNB

let block cfg s = Block.of_instructions cfg (parse_block s)

let four_adds = "add rax, rbx\nadd rcx, rdx\nadd rsi, rdi\nadd r8, r9"

let checkf = Alcotest.(check (float 1e-6))

let component_tests =
  [ Alcotest.test_case "issue width" `Quick (fun () ->
        checkf "4 adds on SKL" 1.0 (Issue.throughput (block skl four_adds));
        checkf "4 adds on RKL (5-wide)" 0.8
          (Issue.throughput (block rkl four_adds)));
    Alcotest.test_case "decoder steady state" `Quick (fun () ->
        checkf "4 simple insts, 4 decoders" 1.0
          (Dec.throughput (block skl four_adds));
        (* 5 one-µop instructions on 4 decoders: 2 cycles / iteration
           until wraparound evens out: steady state 1.25 *)
        let five = four_adds ^ "\nadd r10, r11" in
        checkf "5 simple insts" 1.25 (Dec.throughput (block skl five)));
    Alcotest.test_case "simple decoder model" `Quick (fun () ->
        checkf "simple dec, 4 insts" 1.0 (Dec.simple (block skl four_adds));
        (* cvtsi2sd needs the complex decoder (2 fused µops) *)
        let b = block skl "cvtsi2sd xmm0, rax\ncvtsi2sd xmm1, rbx" in
        checkf "2 complex" 2.0 (Dec.simple b));
    Alcotest.test_case "predecoder: 16 nops per 16-byte block" `Quick
      (fun () ->
        let b = block skl "nop" in
        checkf "single nop" 0.25 (Predec.throughput ~mode:`Unrolled b);
        checkf "simple predec" (1.0 /. 16.0) (Predec.simple b));
    Alcotest.test_case "predecoder: 12-byte block of adds" `Quick (fun () ->
        (* u = 4, 3 fetch blocks, L = [5;5;6], O = [0;1;0] -> 5 cycles *)
        checkf "4 adds" 1.25
          (Predec.throughput ~mode:`Unrolled (block skl four_adds)));
    Alcotest.test_case "predecoder LCP penalty" `Quick (fun () ->
        let no_lcp = Predec.throughput ~mode:`Loop (block skl four_adds) in
        let lcp =
          Predec.throughput ~mode:`Loop
            (block skl "add ax, 0x1234\nadd rcx, rdx\nadd rsi, rdi")
        in
        Alcotest.(check bool) "LCP costs cycles" true (lcp > no_lcp);
        (* one LCP instruction, one fetch block: 3-cycle penalty not
           hidden: 1 + max(0, 3 - (1-1)) = 4 *)
        checkf "isolated LCP" 4.0
          (Predec.throughput ~mode:`Loop (block skl "add ax, 0x1234")));
    Alcotest.test_case "DSB" `Quick (fun () ->
        (* 4 µops, width 6, block < 32 bytes: ceil -> 1 cycle *)
        checkf "short block rounds up" 1.0 (Dsb.throughput (block skl four_adds));
        (* long block >= 32 bytes: fractional *)
        let long =
          String.concat "\n" (List.init 12 (fun _ -> "add rax, 0x12345"))
        in
        let b = block skl long in
        Alcotest.(check bool) "block is long" true (b.Block.len >= 32);
        checkf "12 uops / 6" 2.0 (Dsb.throughput b));
    Alcotest.test_case "LSD" `Quick (fun () ->
        (* HSW: enabled, issue 4, unroll target 16: n=4 -> u=4,
           ceil(16/4)/4 = 1.0 *)
        let b = block hsw four_adds in
        Alcotest.(check bool) "applicable" true (Lsd.applicable b);
        checkf "4 uops" 1.0 (Lsd.throughput b);
        (* n=5 -> u=4 (20 >= 16): ceil(20/4)/4 = 1.25 *)
        checkf "5 uops" 1.25
          (Lsd.throughput (block hsw (four_adds ^ "\nadd r10, r11")));
        (* SKL: LSD disabled by the SKL150 erratum *)
        Alcotest.(check bool) "SKL disabled" false
          (Lsd.applicable (block skl four_adds)));
    Alcotest.test_case "ports" `Quick (fun () ->
        (* 4 ALU µops on p0156 -> 1.0 *)
        checkf "alu spread" 1.0 (Ports.throughput (block skl four_adds));
        (* shuffles are p5-only on SKL *)
        checkf "3 shuffles on one port" 3.0
          (Ports.throughput
             (block skl
                "pshufd xmm0, xmm1, 0\npshufd xmm2, xmm3, 0\npshufd xmm4, xmm5, 0"));
        (* 2 p5-only shuffles dominate: bound 2/1 beats 6 µops on the
           four ALU ports (p5 is one of them), 6/4 = 1.5 *)
        let b =
          block skl
            "pshufd xmm0, xmm1, 0\npshufd xmm2, xmm3, 0\nadd rax, rbx\nadd rcx, rdx\nadd rsi, rdi\nadd r8, r9"
        in
        checkf "mixed contention" 2.0 (Ports.throughput b);
        (* with a single shuffle the pair-union bound takes over:
           5 µops on p0156 -> 1.25 *)
        let b2 =
          block skl
            "pshufd xmm0, xmm1, 0\nadd rax, rbx\nadd rcx, rdx\nadd rsi, rdi\nadd r8, r9"
        in
        checkf "union bound" 1.25 (Ports.throughput b2));
    Alcotest.test_case "ports: pairwise heuristic = exhaustive bound" `Quick
      (fun () ->
        (* the paper reports the pairwise heuristic matches the LP bound
           on all BHive benchmarks; we verify it on our corpus and on
           all µarchs *)
        let cases = Facile_bhive.Suite.corpus ~seed:29 ~size:120 () in
        List.iter
          (fun cfg ->
            List.iter
              (fun (c : Facile_bhive.Suite.case) ->
                let b = Block.of_instructions cfg c.Facile_bhive.Suite.loop in
                let fast = Ports.throughput b in
                let exact = Ports_ref.throughput_exhaustive b in
                if abs_float (fast -. exact) > 1e-9 then
                  Alcotest.failf
                    "case %d on %s: pairwise %.4f <> exhaustive %.4f"
                    c.Facile_bhive.Suite.id cfg.Config.abbrev fast exact)
              cases)
          [ skl; snb; rkl ]);
    Alcotest.test_case "ports: the critical combination reaches the bound"
      `Quick (fun () ->
        (* its µop count over its port count is the bound bit for bit;
           no combination exactly when no µop uses a port *)
        let cases = Facile_bhive.Suite.corpus ~seed:29 ~size:120 () in
        List.iter
          (fun cfg ->
            List.iter
              (fun (c : Facile_bhive.Suite.case) ->
                List.iter
                  (fun insts ->
                    let b = Block.of_instructions cfg insts in
                    let bound = Ports.throughput b in
                    let reached =
                      match Ports.critical_combination b with
                      | Some (pc, n) ->
                        float_of_int n /. float_of_int (Port.cardinal pc)
                      | None -> 0.0
                    in
                    if Int64.bits_of_float reached <> Int64.bits_of_float bound
                    then
                      Alcotest.failf "case %d on %s: combination %h, bound %h"
                        c.Facile_bhive.Suite.id cfg.Config.abbrev reached bound)
                  [ c.Facile_bhive.Suite.body; c.Facile_bhive.Suite.loop ])
              cases)
          Config.all);
    Alcotest.test_case "precedence chains" `Quick (fun () ->
        checkf "independent adds" 1.0
          (Precedence.throughput (block skl four_adds));
        checkf "two-add chain" 2.0
          (Precedence.throughput (block skl "add rax, rbx\nadd rax, rcx"));
        checkf "imul self-chain" 3.0
          (Precedence.throughput (block skl "imul rax, rbx"));
        (* load in the chain: the configured L1 latency *)
        checkf "pointer chase"
          (float_of_int skl.Config.load_latency)
          (Precedence.throughput (block skl "mov rax, qword ptr [rax]"));
        checkf "pointer chase ICL"
          (float_of_int (Config.by_arch Config.ICL).Config.load_latency)
          (Precedence.throughput
             (block (Config.by_arch Config.ICL) "mov rax, qword ptr [rax]"));
        (* zero idiom breaks the chain *)
        checkf "xor breaks dep" 1.0
          (Precedence.throughput
             (block skl "xor rax, rax\nadd rax, rbx\nadd rcx, rax")));
    Alcotest.test_case "precedence: howard = lawler on blocks" `Quick
      (fun () ->
        let cases = Facile_bhive.Suite.corpus ~seed:11 ~size:60 () in
        List.iter
          (fun (c : Facile_bhive.Suite.case) ->
            let b = Block.of_instructions skl c.Facile_bhive.Suite.loop in
            let h = Precedence.throughput b in
            let l = Precedence_ref.throughput_lawler b in
            if abs_float (h -. l) > 1e-5 then
              Alcotest.failf "howard %f <> lawler %f on case %d" h l
                c.Facile_bhive.Suite.id)
          cases) ]

let fusion_tests =
  [ Alcotest.test_case "macro fusion" `Quick (fun () ->
        let b = block skl "cmp rax, rbx\njne -10" in
        Alcotest.(check int) "one logical inst" 1
          (List.length (Block.logicals b));
        Alcotest.(check int) "one fused µop" 1 (Block.fused_uops b);
        (* SNB fuses CMP but the pair still exists *)
        let b2 = block snb "cmp rax, rbx\njne -10" in
        Alcotest.(check int) "SNB fuses cmp+jcc" 1
          (List.length (Block.logicals b2));
        (* inc+jcc does not fuse on SNB *)
        let b3 = block snb "inc rax\njne -10" in
        Alcotest.(check int) "SNB no inc fusion" 2
          (List.length (Block.logicals b3));
        let b4 = block skl "inc rax\njne -10" in
        Alcotest.(check int) "SKL inc fusion" 1
          (List.length (Block.logicals b4)));
    Alcotest.test_case "a memory destination does not fuse with a Jcc" `Quick
      (fun () ->
        (* a fused pair keeps only the first instruction's loads and the
           branch: fusing would drop the store-address and store-data
           µops *)
        let loop = "and dword ptr [r8+rdx*4+64], r10d\njne 0" in
        List.iter
          (fun (cfg : Config.t) ->
            let b = block cfg loop in
            List.iter
              (fun (front, b) ->
                Alcotest.(check int)
                  (Printf.sprintf "%s via %s: two logicals" cfg.Config.abbrev
                     front)
                  2
                  (List.length (Block.logicals b)))
              [ ("asm", b); ("bytes", Block.of_bytes cfg b.Block.bytes) ])
          Config.all;
        Alcotest.(check (float 0.)) "SKL Ports" 1.0
          (Ports.throughput (block skl loop)));
    Alcotest.test_case "mov elimination" `Quick (fun () ->
        let elim cfg s =
          (List.hd (Block.logicals (block cfg s))).Block.eliminated
        in
        Alcotest.(check bool) "SKL eliminates mov r,r" true
          (elim skl "mov rax, rbx");
        Alcotest.(check bool) "SNB does not" false (elim snb "mov rax, rbx");
        Alcotest.(check bool) "ICL gpr elim disabled" false
          (elim (Config.by_arch Config.ICL) "mov rax, rbx");
        Alcotest.(check bool) "ICL still eliminates vec" true
          (elim (Config.by_arch Config.ICL) "movaps xmm0, xmm1");
        Alcotest.(check bool) "zero idiom" true (elim skl "xor rax, rax"));
    Alcotest.test_case "unlamination" `Quick (fun () ->
        (* indexed RMW unlaminates everywhere *)
        let b = block hsw "add qword ptr [rax+rbx*8], rcx" in
        let l = List.hd (Block.logicals b) in
        Alcotest.(check int) "HSW fused" 2 l.Block.fused_uops;
        Alcotest.(check int) "HSW issued" 4 l.Block.issued_uops;
        (* simple addressing stays fused *)
        let b2 = block hsw "add qword ptr [rax], rcx" in
        let l2 = List.hd (Block.logicals b2) in
        Alcotest.(check int) "simple stays fused" 2 l2.Block.issued_uops;
        (* SKL keeps an indexed load-op with one register source fused *)
        let b3 = block skl "add rcx, qword ptr [rax+rbx*8]" in
        let l3 = List.hd (Block.logicals b3) in
        Alcotest.(check int) "SKL load-op" 1 l3.Block.fused_uops);
    Alcotest.test_case "macro fusion heeds the Jcc's condition" `Quick
      (fun () ->
        (* CMP, ADD and SUB do not fuse with JO/JNO/JS/JNS/JP/JNP, INC
           and DEC only with JE/JNE/JL/JGE/JLE/JG; TEST and AND fuse
           with every Jcc *)
        let fusible cfg first =
          (Facile_db.Flat.describe cfg (List.hd (parse_block first)))
            .Facile_db.Db.macro_fusible
        in
        Alcotest.(check bool) "CMP, ADD and INC fusible on HSW" true
          (fusible hsw "cmp rax, rbx" && fusible hsw "add rax, rbx"
           && fusible hsw "inc rax");
        List.iter
          (fun (cfg : Config.t) ->
            List.iter
              (fun (first, jcc, pairs) ->
                let b = block cfg (first ^ "\n" ^ jcc) in
                let expect = if pairs && fusible cfg first then 1 else 2 in
                List.iter
                  (fun (front, b) ->
                    let what =
                      Printf.sprintf "%s %s / %s via %s" cfg.Config.abbrev
                        first jcc front
                    in
                    Alcotest.(check int) (what ^ ": logicals") expect
                      (List.length (Block.logicals b));
                    Alcotest.(check int) (what ^ ": fused-domain µops") expect
                      (Block.fused_uops b))
                  [ ("asm", b); ("bytes", Block.of_bytes cfg b.Block.bytes) ])
              [ ("cmp rax, rbx", "jo 0", false);
                ("add rax, rbx", "js 0", false);
                ("inc rax", "jb 0", false);
                ("cmp rax, rbx", "jne 0", true);
                ("test rax, rbx", "jo 0", true);
                ("dec rax", "jg 0", true) ])
          Config.all) ]

let model_tests =
  [ Alcotest.test_case "TP_U combination" `Quick (fun () ->
        let p = Model.predict ~notion:`Unrolled (block skl four_adds) in
        (* Predec 1.25 dominates Dec/Issue/Ports/Precedence (all 1.0) *)
        checkf "cycles" 1.25 p.Model.cycles;
        Alcotest.(check bool) "predec bottleneck" true
          (Model.is_bottleneck p Model.Predec));
    Alcotest.test_case "TP_L uses LSD on HSW" `Quick (fun () ->
        let insts = parse_block four_adds in
        let looped = Facile_bhive.Genblock.looped insts in
        let b = Block.of_instructions hsw looped in
        let p = Model.predict ~notion:`Loop b in
        Alcotest.(check bool) "fe path lsd" true (p.Model.fe_path = Model.FE_lsd));
    Alcotest.test_case "TP_L uses DSB on SKL (LSD off)" `Quick (fun () ->
        let insts = parse_block four_adds in
        let b = Block.of_instructions skl (Facile_bhive.Genblock.looped insts) in
        let p = Model.predict ~notion:`Loop b in
        (* the 5-byte loop ends well inside the first 32-byte window;
           no erratum trigger at offset 12 *)
        Alcotest.(check bool) "fe path dsb" true (p.Model.fe_path = Model.FE_dsb));
    Alcotest.test_case "JCC erratum forces legacy decode" `Quick (fun () ->
        (* pad so that the branch crosses the 32-byte boundary *)
        let pad =
          String.concat "\n" (List.init 6 (fun _ -> "add rax, 0x12345"))
        in
        (* 6 * 6 = 36 bytes; add a jcc: it starts at 36... make the pad
           29 bytes so the branch crosses 32 *)
        ignore pad;
        let insts =
          parse_block
            "add rax, 0x12345\nadd rbx, 0x12345\nadd rcx, 0x12345\nadd rdx, 0x12345\nadd rsi, rdi\nadd r8, r9"
        in
        let looped = Facile_bhive.Genblock.looped insts in
        let b = Block.of_instructions skl looped in
        Alcotest.(check bool) "erratum detected" true
          (Block.jcc_erratum_affected b);
        let p = Model.predict ~notion:`Loop b in
        Alcotest.(check bool) "decoders path" true
          (p.Model.fe_path = Model.FE_decoders);
        (* same block on RKL (no erratum): front end via LSD/DSB *)
        let b2 = Block.of_instructions rkl looped in
        let p2 = Model.predict ~notion:`Loop b2 in
        Alcotest.(check bool) "no erratum on RKL" true
          (p2.Model.fe_path <> Model.FE_decoders));
    Alcotest.test_case "variants" `Quick (fun () ->
        let b = block skl four_adds in
        let base = (Model.predict ~notion:`Unrolled b).Model.cycles in
        let without_predec =
          (Model.predict ~notion:`Unrolled
             ~variant:{ Model.default with Model.without = [ Model.Predec ] }
             b).Model.cycles
        in
        Alcotest.(check bool) "removing the bottleneck lowers tp" true
          (without_predec < base);
        let only_ports =
          (Model.predict ~notion:`Unrolled
             ~variant:{ Model.default with Model.only = Some [ Model.Ports ] }
             b).Model.cycles
        in
        checkf "only ports" 1.0 only_ports;
        let ideal =
          Model.speedup_idealizing b Model.Predec
        in
        checkf "idealizing predec" (1.25 /. 1.0) ideal);
    Alcotest.test_case "variant monotonicity" `Quick (fun () ->
        let cases = Facile_bhive.Suite.corpus ~seed:3 ~size:80 () in
        List.iter
          (fun (c : Facile_bhive.Suite.case) ->
            let b = Block.of_instructions skl c.Facile_bhive.Suite.body in
            let base = (Model.predict ~notion:`Unrolled b).Model.cycles in
            List.iter
              (fun comp ->
                let v =
                  (Model.predict ~notion:`Unrolled
                     ~variant:{ Model.default with Model.without = [ comp ] } b)
                    .Model.cycles
                in
                if v > base +. 1e-9 then
                  Alcotest.failf "removing %s raised tp on case %d"
                    (Model.component_name comp) c.Facile_bhive.Suite.id;
                let ideal =
                  (Model.predict ~notion:`Unrolled
                     ~variant:{ Model.default with Model.idealized = [ comp ] }
                     b).Model.cycles
                in
                if ideal > base +. 1e-9 then
                  Alcotest.failf "idealizing %s raised tp on case %d"
                    (Model.component_name comp) c.Facile_bhive.Suite.id)
              Model.all_components)
          cases);
    Alcotest.test_case "corpus determinism" `Quick (fun () ->
        let a = Facile_bhive.Suite.corpus ~seed:123 ~size:50 () in
        let b = Facile_bhive.Suite.corpus ~seed:123 ~size:50 () in
        List.iter2
          (fun (x : Facile_bhive.Suite.case) (y : Facile_bhive.Suite.case) ->
            assert (List.for_all2 Inst.equal x.Facile_bhive.Suite.body
                      y.Facile_bhive.Suite.body))
          a b;
        let c = Facile_bhive.Suite.corpus ~seed:124 ~size:50 () in
        let same =
          List.for_all2
            (fun (x : Facile_bhive.Suite.case) (y : Facile_bhive.Suite.case) ->
              List.length x.Facile_bhive.Suite.body
              = List.length y.Facile_bhive.Suite.body
              && List.for_all2 Inst.equal x.Facile_bhive.Suite.body
                   y.Facile_bhive.Suite.body)
            a c
        in
        Alcotest.(check bool) "different seeds differ" false same);
    Alcotest.test_case "all corpus blocks analyzable on all µarchs" `Quick
      (fun () ->
        let cases = Facile_bhive.Suite.corpus ~seed:17 ~size:60 () in
        List.iter
          (fun cfg ->
            List.iter
              (fun (c : Facile_bhive.Suite.case) ->
                let bu = Block.of_instructions cfg c.Facile_bhive.Suite.body in
                let bl = Block.of_instructions cfg c.Facile_bhive.Suite.loop in
                let pu = Model.predict ~notion:`Unrolled bu in
                let pl = Model.predict ~notion:`Loop bl in
                if not (pu.Model.cycles > 0.0) then
                  Alcotest.failf "zero TP_U on %s case %d" cfg.Config.abbrev
                    c.Facile_bhive.Suite.id;
                if not (pl.Model.cycles > 0.0) then
                  Alcotest.failf "zero TP_L on %s case %d" cfg.Config.abbrev
                    c.Facile_bhive.Suite.id)
              cases)
          Config.all) ]

(* Cross-component invariants, checked over the whole corpus. *)
let invariant_tests =
  [ Alcotest.test_case "component bound invariants on corpus" `Quick
      (fun () ->
        let cases = Facile_bhive.Suite.corpus ~seed:31 ~size:120 () in
        List.iter
          (fun cfg ->
            List.iter
              (fun (c : Facile_bhive.Suite.case) ->
                let b = Block.of_instructions cfg c.Facile_bhive.Suite.loop in
                let iw = float_of_int cfg.Config.issue_width in
                let n_f = float_of_int (Block.fused_uops b) in
                let n_i = float_of_int (Block.issued_uops b) in
                (* Issue is exactly issued/width *)
                if abs_float (Issue.throughput b -. (n_i /. iw)) > 1e-9 then
                  Alcotest.failf "Issue formula broken on case %d"
                    c.Facile_bhive.Suite.id;
                (* DSB at least n/w; LSD between n/i and ceil(n/i) *)
                let w = float_of_int cfg.Config.dsb_width in
                if Dsb.throughput b +. 1e-9 < n_f /. w then
                  Alcotest.fail "DSB below n/w";
                let lsd = Lsd.throughput b in
                if lsd +. 1e-9 < n_f /. iw then Alcotest.fail "LSD below n/i";
                if lsd -. 1e-9 > Float.ceil (n_f /. iw) then
                  Alcotest.fail "LSD above ceil(n/i)";
                (* full predecoder dominates the simple model *)
                List.iter
                  (fun mode ->
                    if
                      Predec.throughput ~mode b +. 1e-9 < Predec.simple b
                    then Alcotest.fail "Predec below SimplePredec")
                  [ `Unrolled; `Loop ];
                (* Algorithm 1 dominates SimpleDec *)
                if Dec.throughput b +. 1e-9 < Dec.simple b then
                  Alcotest.failf "Dec %f below SimpleDec %f on case %d (%s)"
                    (Dec.throughput b) (Dec.simple b) c.Facile_bhive.Suite.id
                    cfg.Config.abbrev;
                (* the prediction equals the max over its bottlenecks *)
                let p = Model.predict ~notion:`Loop b in
                (match Model.bottlenecks p with
                 | [] -> Alcotest.fail "no bottleneck reported"
                 | bn :: _ ->
                   let v = Model.value p bn in
                   if abs_float (v -. p.Model.cycles) > 1e-9 then
                     Alcotest.fail "bottleneck value <> prediction"))
              cases)
          [ skl; hsw; snb; rkl ]);
    Alcotest.test_case "of_bytes and of_instructions agree" `Quick (fun () ->
        (* analyzing machine code must give exactly the same prediction
           as analyzing the instruction list it encodes *)
        let cases = Facile_bhive.Suite.corpus ~seed:37 ~size:80 () in
        List.iter
          (fun (c : Facile_bhive.Suite.case) ->
            List.iter
              (fun insts ->
                let from_insts = Block.of_instructions skl insts in
                let from_bytes = Block.of_bytes skl from_insts.Block.bytes in
                let p1 = Model.predict from_insts in
                let p2 = Model.predict from_bytes in
                if abs_float (p1.Model.cycles -. p2.Model.cycles) > 1e-9 then
                  Alcotest.failf "path mismatch on case %d: %.4f vs %.4f"
                    c.Facile_bhive.Suite.id p1.Model.cycles p2.Model.cycles;
                List.iter
                  (fun c ->
                    if abs_float (Model.value p1 c -. Model.value p2 c) > 1e-9
                    then
                      Alcotest.failf "component %s differs by path"
                        (Model.component_name c))
                  Model.all_components)
              [ c.Facile_bhive.Suite.body; c.Facile_bhive.Suite.loop ])
          cases);
    Alcotest.test_case "blocks of one instruction" `Quick (fun () ->
        (* every generated single instruction analyzes on every µarch *)
        let rng = Facile_bhive.Prng.create 3 in
        List.iter
          (fun profile ->
            for _ = 1 to 200 do
              let i =
                Facile_bhive.Genblock.random_inst rng profile ~allow_fma:false
              in
              List.iter
                (fun cfg ->
                  let b = Block.of_instructions cfg [ i ] in
                  let p = Model.predict ~notion:`Unrolled b in
                  if not (p.Model.cycles > 0.0) then
                    Alcotest.failf "zero prediction for %s" (Inst.to_string i))
                Config.all
            done)
          Facile_bhive.Genblock.all_profiles) ]

(* The masks the Ports component operates on: port sets of dispatched,
   non-eliminated µops. *)
let distinct_port_masks (b : Block.t) =
  List.concat_map
    (fun (l : Block.logical) ->
      if l.Block.eliminated then []
      else
        List.filter_map
          (fun (u : Facile_db.Db.uop) ->
            if Port.is_empty u.Facile_db.Db.ports then None
            else Some u.Facile_db.Db.ports)
          l.Block.dispatched)
    (Block.logicals b)
  |> List.sort_uniq Port.compare

(* The pairwise heuristic only considers unions of pairs of occurring
   masks, the exhaustive bound every subset of the occurring ports; the
   heuristic can never exceed it, and with at most two distinct masks
   every relevant combination (A, B, A∪B) is a pair union, so the two
   must coincide. *)
let qcheck_ports_heuristic =
  QCheck.Test.make
    ~name:"ports: pairwise <= exhaustive, = with <= 2 distinct masks"
    ~count:300
    QCheck.(triple small_nat (int_range 1 10) (int_range 0 7))
    (fun (seed, len, profile_idx) ->
      let profiles = Facile_bhive.Genblock.all_profiles in
      let profile = List.nth profiles (profile_idx mod List.length profiles) in
      let rng = Facile_bhive.Prng.create (succ seed) in
      let len = max 1 (min 10 len) (* shrinking can escape int_range *) in
      let insts =
        Facile_bhive.Genblock.body rng profile ~allow_fma:false ~len
      in
      List.for_all
        (fun cfg ->
          let b = Block.of_instructions cfg insts in
          let fast = Ports.throughput b in
          let exact = Ports_ref.throughput_exhaustive b in
          if fast > exact +. 1e-9 then
            QCheck.Test.fail_reportf
              "pairwise %.4f exceeds exhaustive %.4f on %s" fast exact
              cfg.Config.abbrev
          else
            let masks = distinct_port_masks b in
            if List.length masks <= 2 && abs_float (fast -. exact) > 1e-9 then
              QCheck.Test.fail_reportf
                "%d distinct masks but pairwise %.4f <> exhaustive %.4f on %s"
                (List.length masks) fast exact cfg.Config.abbrev
            else true)
        [ skl; snb; rkl ])

let ports_property_tests =
  [ QCheck_alcotest.to_alcotest qcheck_ports_heuristic ]

module Engine = Facile_engine.Engine

let check_predictions_equal (a : Model.prediction) (b : Model.prediction) =
  if not (Float.equal a.Model.cycles b.Model.cycles) then
    Alcotest.failf "cycles differ: %h vs %h" a.Model.cycles b.Model.cycles;
  if a.Model.bottleneck_mask <> b.Model.bottleneck_mask then
    Alcotest.fail "bottlenecks differ";
  if a.Model.fe_path <> b.Model.fe_path then Alcotest.fail "fe_path differs";
  List.iter
    (fun c ->
      let v1 = Model.value a c and v2 = Model.value b c in
      if not (Float.equal v1 v2) then
        Alcotest.failf "component %s differs: %h vs %h"
          (Model.component_name c) v1 v2)
    Model.all_components

(* Minor words per call of [f], after one warming call. *)
let words_per_call f =
  ignore (Sys.opaque_identity (f ()));
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let engine_tests =
  [ Alcotest.test_case "a memo hit allocates only its lookup" `Quick (fun () ->
        (* the key tuple and what the cache itself allocates on a hit,
           measured on the same key with a constant value: no closure
           for the miss, no thunk for the span *)
        let b = Block.of_instructions skl (parse_block "add rax, rbx") in
        let code = b.Block.bytes and analyze () = b in
        let key = (Config.SKL, (`Auto : Model.notion), code) in
        let cache =
          Facile_engine.Shard_cache.create ~shards:4 ~cap:16
            ~hash:Hashtbl.hash ()
        in
        let entry = (1, Model.predict b) in
        let compute _ () = entry in
        let lookup =
          words_per_call (fun () ->
              Facile_engine.Shard_cache.find_or_compute cache key compute ())
        in
        Engine.with_pool ~workers:1 (fun pool ->
            let hit =
              words_per_call (fun () ->
                  Engine.predict_code pool skl ~mode:`Auto code ~analyze)
            in
            let key_words = 4. in
            if hit > lookup +. key_words then
              Alcotest.failf
                "a hit allocates %.1f words, its lookup %.1f + %.0f" hit lookup
                key_words));
    Alcotest.test_case "parallel = sequential, bit-identical" `Quick (fun () ->
        let cases = Facile_bhive.Suite.corpus ~seed:41 ~size:100 () in
        let blocks =
          List.concat_map
            (fun (c : Facile_bhive.Suite.case) ->
              [ Block.of_instructions skl c.Facile_bhive.Suite.body;
                Block.of_instructions skl c.Facile_bhive.Suite.loop ])
            cases
        in
        (* duplicates exercise the memoization path *)
        let blocks = blocks @ blocks in
        let predict ~workers ~memoize =
          Engine.with_pool ~workers ~memoize (fun pool ->
              Engine.predict_batch pool ~mode:`Auto blocks)
        in
        let seq = predict ~workers:1 ~memoize:false in
        List.iter
          (fun (workers, memoize) ->
            let par = predict ~workers ~memoize in
            List.iter2 check_predictions_equal seq par)
          [ (1, true); (2, false); (4, true);
            (max 1 (Domain.recommended_domain_count ()), true) ]);
    Alcotest.test_case "memoization predicts repeated blocks once" `Quick
      (fun () ->
        let cases = Facile_bhive.Suite.corpus ~seed:43 ~size:40 () in
        let blocks =
          List.map
            (fun (c : Facile_bhive.Suite.case) ->
              Block.of_instructions skl c.Facile_bhive.Suite.body)
            cases
        in
        let unique =
          List.length
            (List.sort_uniq compare
               (List.map (fun (b : Block.t) -> b.Block.bytes) blocks))
        in
        Engine.with_pool ~workers:2 (fun pool ->
            let n = 2 * List.length blocks in
            ignore (Engine.predict_batch pool ~mode:`Auto (blocks @ blocks));
            let { Engine.hits; misses; _ } = Engine.cache_stats pool in
            Alcotest.(check int) "misses = unique blocks" unique misses;
            Alcotest.(check int) "hits = repeats" (n - unique) hits;
            (* a second identical batch is served from the cache *)
            ignore (Engine.predict_batch pool ~mode:`Auto blocks);
            let { Engine.hits = hits2; misses = misses2; _ } =
              Engine.cache_stats pool
            in
            Alcotest.(check int) "no new misses" misses misses2;
            Alcotest.(check int) "all hits" (hits + List.length blocks) hits2));
    Alcotest.test_case "map keeps order and propagates exceptions" `Quick
      (fun () ->
        Engine.with_pool ~workers:4 (fun pool ->
            let xs = Array.init 1000 Fun.id in
            let ys = Engine.map pool (fun x -> x * x) xs in
            Array.iteri
              (fun i y -> Alcotest.(check int) "ordered" (i * i) y)
              ys;
            (match
               Engine.map pool
                 (fun x -> if x = 37 then failwith "boom" else x)
                 xs
             with
             | _ -> Alcotest.fail "expected exception"
             | exception Failure m ->
               Alcotest.(check string) "original exception" "boom" m))) ]

(* ------------------------------------------------------------------ *)
(* Flattened hot path: the table-driven, arena-backed pipeline must be
   bit-identical to the reference (pre-flattening) pipeline, and must
   stop allocating once the arenas are warm. *)

let qcheck_flat_pipeline =
  QCheck.Test.make
    ~name:"predict is bit-identical to predict_reference" ~count:150
    QCheck.(triple small_nat (int_range 1 10) (int_range 0 7))
    (fun (seed, len, profile_idx) ->
      let profiles = Facile_bhive.Genblock.all_profiles in
      let profile = List.nth profiles (profile_idx mod List.length profiles) in
      let rng = Facile_bhive.Prng.create (succ seed) in
      let len = max 1 (min 10 len) in
      let insts =
        Facile_bhive.Genblock.body rng profile ~allow_fma:false ~len
      in
      let same cfg insts =
        let b = Block.of_instructions cfg insts in
        List.for_all
          (fun notion ->
            let f = Model.predict ~notion b in
            let r = Model_ref.predict ~notion b in
            if f = r then true
            else
              QCheck.Test.fail_reportf
                "fast %h <> reference %h on %s (notion %s)" f.Model.cycles
                r.Model.cycles cfg.Config.abbrev
                (Model.notion_name notion))
          [ `Unrolled; `Loop; `Auto ]
      in
      List.for_all
        (fun cfg ->
          same cfg insts && same cfg (Facile_bhive.Genblock.looped insts))
        [ skl; snb; rkl ])

(* System threads of one domain interleave at any allocation, so a
   prediction preempted halfway must find its scratch as it left it.
   Each case runs long enough (~0.2 s) for the runtime's 50 ms tick to
   switch threads mid-prediction several times. *)
let qcheck_threads_one_domain =
  QCheck.Test.make
    ~name:"threads of one domain predict bit-identically to sequential"
    ~count:3
    QCheck.(pair small_nat (int_range 2 4))
    (fun (seed, threads) ->
      let rng = Facile_bhive.Prng.create (succ seed) in
      let profiles = Array.of_list Facile_bhive.Genblock.all_profiles in
      let blocks =
        Array.init 200 (fun i ->
            let profile = profiles.(i mod Array.length profiles) in
            let body =
              Facile_bhive.Genblock.body rng profile ~allow_fma:false
                ~len:(1 + (i mod 12))
            in
            let cfg = [| skl; hsw; snb; rkl |].(i mod 4) in
            Block.of_instructions cfg
              (if i mod 2 = 0 then Facile_bhive.Genblock.looped body else body))
      in
      let expected = Array.map (fun b -> Model.predict b) blocks in
      let bits = Int64.bits_of_float in
      let same (p : Model.prediction) (q : Model.prediction) =
        bits p.Model.cycles = bits q.Model.cycles
        && p.Model.bottleneck_mask = q.Model.bottleneck_mask
        && p.Model.fe_path = q.Model.fe_path
        && List.for_all
             (fun c -> bits (Model.value p c) = bits (Model.value q c))
             Model.all_components
      in
      let wrong = Atomic.make 0 and raised = Atomic.make 0 in
      let rounds = 60 / threads in
      let worker t =
        for r = 0 to rounds - 1 do
          Array.iteri
            (fun i _ ->
              let i = (i + (t * 37) + r) mod Array.length blocks in
              match Model.predict blocks.(i) with
              | p -> if not (same p expected.(i)) then Atomic.incr wrong
              | exception _ -> Atomic.incr raised)
            blocks
        done
      in
      List.iter Thread.join (List.init threads (Thread.create worker));
      if Atomic.get wrong + Atomic.get raised = 0 then true
      else
        QCheck.Test.fail_reportf "%d threads: %d wrong predictions, %d raised"
          threads (Atomic.get wrong) (Atomic.get raised))

let flatpath_tests =
  [ QCheck_alcotest.to_alcotest qcheck_flat_pipeline;
    QCheck_alcotest.to_alcotest qcheck_threads_one_domain;
    Alcotest.test_case "steady-state prediction allocation is constant" `Quick
      (fun () ->
        let cases = Facile_bhive.Suite.corpus ~seed:11 ~size:12 () in
        let blocks =
          List.map
            (fun (c : Facile_bhive.Suite.case) ->
              Block.of_instructions skl c.Facile_bhive.Suite.loop)
            cases
        in
        (* first pass grows every arena buffer to this corpus's sizes *)
        List.iter (fun b -> ignore (Model.predict b)) blocks;
        List.iter
          (fun b ->
            ignore (Model.predict b);
            let w0 = Gc.minor_words () in
            ignore (Model.predict b);
            let w1 = Gc.minor_words () in
            ignore (Model.predict b);
            let w2 = Gc.minor_words () in
            let d1 = w1 -. w0 and d2 = w2 -. w1 in
            if not (Float.equal d1 d2) then
              Alcotest.failf "allocation not steady: %.0f then %.0f words" d1
                d2;
            (* the budget: result records and bookkeeping, never
               per-element scratch (a regression to per-edge boxing or
               per-call arrays blows well past this) *)
            if d1 > 4096.0 then
              Alcotest.failf "allocation budget exceeded: %.0f words" d1)
          blocks) ]

(* a region of Skylake blocks, given as (assembly, weight) pairs *)
let region ws =
  Region.analyze
    (List.map
       (fun (src, weight) ->
         { Region.block = Block.of_instructions skl (parse_block src); weight })
       ws)

let region_tests =
  [ Alcotest.test_case "single-block region = block prediction" `Quick
      (fun () ->
        let src = "imul rax, rbx\nadd rax, rcx" in
        let r = region [ (src, 1.0) ] in
        let p = Model.predict (Block.of_instructions skl (parse_block src)) in
        checkf "naive equals prediction" p.Model.cycles r.Region.naive;
        (* the aggregated bound cannot exceed the naive sum by much, and
           dominates each pooled resource *)
        Alcotest.(check bool) "bounded" true
          (r.Region.cycles <= r.Region.naive +. 1e-9));
    Alcotest.test_case "weights are normalized" `Quick (fun () ->
        let a = "add rax, rbx" and b = "imul rcx, rdx" in
        let r1 = region [ (a, 1.0); (b, 3.0) ] in
        let r2 = region [ (a, 10.0); (b, 30.0) ] in
        checkf "scale invariant" r1.Region.cycles r2.Region.cycles;
        (* finite weights whose sum overflows normalize too *)
        let r3 = region [ (a, Float.max_float); (b, Float.max_float) ] in
        checkf "overflowing sum" (region [ (a, 1.0); (b, 1.0) ]).Region.cycles
          r3.Region.cycles);
    Alcotest.test_case "pooled ports exceed per-block weighting" `Quick
      (fun () ->
        (* two blocks that each fill different ports lightly still share
           the same p5 shuffle unit; the pooled bound sees that *)
        let r =
          region
            [ ("pshufd xmm0, xmm1, 0\npshufd xmm2, xmm3, 0", 1.0);
              ("pshufd xmm4, xmm5, 0\npshufd xmm6, xmm7, 0", 1.0) ]
        in
        checkf "p5 pressure pooled" 2.0
          (List.assoc Model.Ports r.Region.component_values));
    Alcotest.test_case "invalid regions rejected" `Quick (fun () ->
        (match Region.analyze [] with
         | _ -> Alcotest.fail "empty region"
         | exception Invalid_argument _ -> ());
        (* [nan <= 0.0] is false, so nan needs a test of its own *)
        List.iter
          (fun w ->
            match region [ ("add rax, rbx", w) ] with
            | _ -> Alcotest.failf "weight %g accepted" w
            | exception Invalid_argument _ -> ())
          [ 0.0; -1.0; Float.nan; Float.infinity; Float.neg_infinity ]) ]

let suite =
  [ "core.components", component_tests;
    "core.fusion", fusion_tests;
    "core.model", model_tests;
    "core.invariants", invariant_tests;
    "core.ports.properties", ports_property_tests;
    "core.flatpath", flatpath_tests;
    "core.engine", engine_tests;
    "core.region", region_tests ]
