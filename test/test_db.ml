open Facile_x86
open Facile_uarch
open Facile_db

let parse s =
  match Asm.parse_inst s with
  | Ok i -> i
  | Error m -> Alcotest.failf "parse: %s" m

let desc arch s = Db.describe (Config.by_arch arch) (parse s)

let db_tests =
  [ Alcotest.test_case "simple ALU" `Quick (fun () ->
        let d = desc Config.SKL "add rax, rbx" in
        Alcotest.(check int) "fused" 1 d.Db.fused_uops;
        Alcotest.(check int) "issued" 1 d.Db.issued_uops;
        Alcotest.(check int) "dispatched" 1 (List.length d.Db.dispatched);
        Alcotest.(check int) "latency" 1 d.Db.latency;
        Alcotest.(check bool) "simple decode" false d.Db.complex_decode);
    Alcotest.test_case "load-op micro-fusion" `Quick (fun () ->
        let d = desc Config.SKL "add rax, qword ptr [rbx]" in
        Alcotest.(check int) "fused" 1 d.Db.fused_uops;
        Alcotest.(check int) "dispatched" 2 (List.length d.Db.dispatched);
        assert (List.exists (fun u -> u.Db.kind = Db.Load) d.Db.dispatched));
    Alcotest.test_case "RMW" `Quick (fun () ->
        let d = desc Config.SKL "add qword ptr [rbx], rax" in
        Alcotest.(check int) "fused" 2 d.Db.fused_uops;
        Alcotest.(check int) "dispatched" 4 (List.length d.Db.dispatched);
        assert (List.exists (fun u -> u.Db.kind = Db.Store_data) d.Db.dispatched);
        assert (List.exists (fun u -> u.Db.kind = Db.Store_addr) d.Db.dispatched));
    Alcotest.test_case "ADC across generations" `Quick (fun () ->
        Alcotest.(check int) "SNB: 2 uops" 2
          (List.length (desc Config.SNB "adc rax, rbx").Db.dispatched);
        Alcotest.(check int) "HSW: 2 uops" 2
          (List.length (desc Config.HSW "adc rax, rbx").Db.dispatched);
        Alcotest.(check int) "BDW: 1 uop" 1
          (List.length (desc Config.BDW "adc rax, rbx").Db.dispatched);
        Alcotest.(check int) "SKL: 1 uop" 1
          (List.length (desc Config.SKL "adc rax, rbx").Db.dispatched));
    Alcotest.test_case "CMOV across generations" `Quick (fun () ->
        Alcotest.(check int) "HSW: 2 uops" 2
          (List.length (desc Config.HSW "cmove rax, rbx").Db.dispatched);
        Alcotest.(check int) "SKL: 1 uop" 1
          (List.length (desc Config.SKL "cmove rax, rbx").Db.dispatched));
    Alcotest.test_case "division is microcoded" `Quick (fun () ->
        let d = desc Config.SKL "div ecx" in
        Alcotest.(check bool) "complex" true d.Db.complex_decode;
        Alcotest.(check bool) "many uops" true (d.Db.fused_uops > 4);
        Alcotest.(check int) "no simple companions" 0 d.Db.available_simple_dec;
        assert (List.exists (fun u -> u.Db.kind = Db.Div_pseudo) d.Db.dispatched);
        (* much cheaper on Ice Lake *)
        let icl = desc Config.ICL "div rcx" in
        Alcotest.(check bool) "ICL faster 64-bit divide" true
          (icl.Db.latency < (desc Config.SKL "div rcx").Db.latency));
    Alcotest.test_case "mov elimination by generation" `Quick (fun () ->
        Alcotest.(check bool) "SNB no" false
          (desc Config.SNB "mov rax, rbx").Db.eliminated;
        Alcotest.(check bool) "IVB yes" true
          (desc Config.IVB "mov rax, rbx").Db.eliminated;
        Alcotest.(check bool) "ICL gpr disabled" false
          (desc Config.ICL "mov rax, rbx").Db.eliminated;
        Alcotest.(check bool) "ICL vec still on" true
          (desc Config.ICL "movdqa xmm0, xmm1").Db.eliminated;
        (* 8/16-bit moves are never eliminated *)
        Alcotest.(check bool) "mov ax, bx" false
          (desc Config.SKL "mov ax, bx").Db.eliminated);
    Alcotest.test_case "zero idioms" `Quick (fun () ->
        assert (Db.is_zero_idiom (parse "xor eax, eax"));
        assert (Db.is_zero_idiom (parse "sub rbx, rbx"));
        assert (Db.is_zero_idiom (parse "pxor xmm3, xmm3"));
        assert (Db.is_zero_idiom (parse "vpxor xmm1, xmm2, xmm2"));
        assert (not (Db.is_zero_idiom (parse "xor eax, ebx")));
        assert (not (Db.is_zero_idiom (parse "xor al, al")));
        let d = desc Config.SNB "xor eax, eax" in
        Alcotest.(check bool) "eliminated even on SNB" true d.Db.eliminated;
        Alcotest.(check int) "zero latency" 0 d.Db.latency);
    Alcotest.test_case "macro-fusibility rules" `Quick (fun () ->
        Alcotest.(check bool) "cmp on SKL" true
          (desc Config.SKL "cmp rax, rbx").Db.macro_fusible;
        Alcotest.(check bool) "add on SKL" true
          (desc Config.SKL "add rax, rbx").Db.macro_fusible;
        Alcotest.(check bool) "add on SNB" false
          (desc Config.SNB "add rax, rbx").Db.macro_fusible;
        Alcotest.(check bool) "cmp on SNB" true
          (desc Config.SNB "cmp rax, rbx").Db.macro_fusible;
        (* memory + immediate cannot fuse *)
        Alcotest.(check bool) "cmp [mem], imm" false
          (desc Config.SKL "cmp dword ptr [rax], 5").Db.macro_fusible);
    Alcotest.test_case "FMA/BMI gating" `Quick (fun () ->
        (match desc Config.SNB "vfmadd231ps xmm0, xmm1, xmm2" with
         | _ -> Alcotest.fail "FMA should be unsupported on SNB"
         | exception Db.Unsupported _ -> ());
        (match desc Config.IVB "andn eax, ebx, ecx" with
         | _ -> Alcotest.fail "BMI should be unsupported on IVB"
         | exception Db.Unsupported _ -> ());
        ignore (desc Config.HSW "vfmadd231ps xmm0, xmm1, xmm2");
        ignore (desc Config.HSW "shlx eax, ebx, ecx");
        Alcotest.(check bool) "supported reports" true
          (Db.supported (Config.by_arch Config.HSW)
             (parse "vfmadd231ps ymm0, ymm1, ymm2"));
        Alcotest.(check bool) "unsupported reports" false
          (Db.supported (Config.by_arch Config.SNB)
             (parse "vfmadd231ps ymm0, ymm1, ymm2")));
    Alcotest.test_case "slow LEA" `Quick (fun () ->
        Alcotest.(check int) "3-component" 3
          (desc Config.SKL "lea rax, [rbx+rcx*4+8]").Db.latency;
        Alcotest.(check int) "2-component" 1
          (desc Config.SKL "lea rax, [rbx+8]").Db.latency);
    Alcotest.test_case "dispatch ports are machine ports" `Quick (fun () ->
        (* every dispatched µop of every corpus instruction uses only
           ports that exist on the machine *)
        let cases = Facile_bhive.Suite.corpus ~seed:19 ~size:80 () in
        List.iter
          (fun (cfg : Config.t) ->
            List.iter
              (fun (c : Facile_bhive.Suite.case) ->
                List.iter
                  (fun inst ->
                    let d = Db.describe cfg inst in
                    List.iter
                      (fun u ->
                        if not (Port.subset u.Db.ports cfg.Config.ports) then
                          Alcotest.failf "%s: uop uses unknown port on %s"
                            (Inst.to_string inst) cfg.Config.abbrev;
                        if (not d.Db.eliminated) && Port.is_empty u.Db.ports
                        then
                          Alcotest.failf "%s: empty port mask"
                            (Inst.to_string inst))
                      d.Db.dispatched)
                  c.Facile_bhive.Suite.loop)
              cases)
          Config.all);
    Alcotest.test_case "fused <= issued <= dispatched+1" `Quick (fun () ->
        let cases = Facile_bhive.Suite.corpus ~seed:23 ~size:80 () in
        let cfg = Config.by_arch Config.SKL in
        List.iter
          (fun (c : Facile_bhive.Suite.case) ->
            List.iter
              (fun inst ->
                let d = Db.describe cfg inst in
                if d.Db.fused_uops > d.Db.issued_uops then
                  Alcotest.failf "%s: fused > issued" (Inst.to_string inst);
                if
                  (not d.Db.eliminated)
                  && d.Db.issued_uops
                     > max 1 (List.length d.Db.dispatched)
                then
                  Alcotest.failf "%s: issued %d > dispatched %d"
                    (Inst.to_string inst) d.Db.issued_uops
                    (List.length d.Db.dispatched))
              c.Facile_bhive.Suite.body)
          cases) ]

let uarch_tests =
  [ Alcotest.test_case "config lookup" `Quick (fun () ->
        Alcotest.(check int) "nine uarchs" 9 (List.length Config.all);
        assert (Config.of_abbrev "skl" <> None);
        assert (Config.of_abbrev "XXX" = None);
        Alcotest.(check string) "name" "Skylake" (Config.arch_name Config.SKL));
    Alcotest.test_case "issue width evolution" `Quick (fun () ->
        Alcotest.(check int) "SNB 4-wide" 4
          (Config.by_arch Config.SNB).Config.issue_width;
        Alcotest.(check int) "ICL 5-wide" 5
          (Config.by_arch Config.ICL).Config.issue_width);
    Alcotest.test_case "LSD availability" `Quick (fun () ->
        assert (Config.by_arch Config.HSW).Config.lsd_enabled;
        assert (not (Config.by_arch Config.SKL).Config.lsd_enabled);
        assert (not (Config.by_arch Config.CLX).Config.lsd_enabled);
        assert (Config.by_arch Config.ICL).Config.lsd_enabled);
    Alcotest.test_case "lsd_unroll" `Quick (fun () ->
        let hsw = Config.by_arch Config.HSW in
        (* target 16, max 8 *)
        Alcotest.(check int) "n=1" 8 (Config.lsd_unroll hsw 1);
        Alcotest.(check int) "n=4" 4 (Config.lsd_unroll hsw 4);
        Alcotest.(check int) "n=5" 4 (Config.lsd_unroll hsw 5);
        Alcotest.(check int) "n=16" 1 (Config.lsd_unroll hsw 16);
        Alcotest.(check int) "n=0 guard" 1 (Config.lsd_unroll hsw 0));
    Alcotest.test_case "port sets" `Quick (fun () ->
        let open Port in
        let p = of_list [ 0; 1; 5 ] in
        Alcotest.(check int) "cardinal" 3 (cardinal p);
        assert (mem 5 p && not (mem 2 p));
        assert (subset (of_list [ 0; 5 ]) p);
        assert (not (subset (of_list [ 0; 2 ]) p));
        Alcotest.(check string) "pp" "p015" (to_string p);
        Alcotest.(check string) "empty" "none" (to_string empty);
        assert (equal (union (of_list [ 0 ]) (of_list [ 1 ])) (of_list [ 0; 1 ]));
        assert (equal (inter p (of_list [ 1; 2 ])) (of_list [ 1 ]));
        Alcotest.(check (list int)) "to_list" [ 0; 1; 5 ] (to_list p)) ]

(* Differential check of the flattened form-indexed tables: on random
   generated instructions (which include register identities and
   shapes the static form enumeration cannot cover), [Flat.describe]
   must behave exactly like [Db.describe] on every arch — same
   descriptor or same rejection.  The exhaustive form x arch sweep
   lives in the [flat] analyzer family of `facile check`. *)
let qcheck_flat_differential =
  QCheck.Test.make ~name:"Flat.describe = Db.describe on generated insts"
    ~count:300
    QCheck.(triple small_nat (int_range 1 10) (int_range 0 7))
    (fun (seed, len, profile_idx) ->
      let profiles = Facile_bhive.Genblock.all_profiles in
      let profile = List.nth profiles (profile_idx mod List.length profiles) in
      let rng = Facile_bhive.Prng.create (succ seed) in
      let len = max 1 (min 10 len) in
      let insts =
        Facile_bhive.Genblock.body rng profile ~allow_fma:false ~len
      in
      List.for_all
        (fun cfg ->
          List.for_all
            (fun i ->
              let ref_d =
                try Ok (Db.describe cfg i) with Db.Unsupported m -> Error m
              in
              let flat_d =
                try Ok (Flat.describe cfg i) with Db.Unsupported m -> Error m
              in
              if ref_d = flat_d then true
              else
                QCheck.Test.fail_reportf "flat <> db on %s for %s"
                  cfg.Config.abbrev (Inst.to_string i))
            insts)
        Config.all)

(* [Flat.key] packs a per-mnemonic code above the operand features: on
   one operand list, every mnemonic must get its own key. *)
let mnemonic_keys =
  Alcotest.test_case "Flat.key tells every mnemonic apart" `Quick (fun () ->
      let keys =
        List.map (fun m -> Flat.key (Inst.make m [])) Inst.all_mnemonics
      in
      Alcotest.(check int) "distinct keys" (List.length Inst.all_mnemonics)
        (List.length (List.sort_uniq compare keys)))

let suite =
  [ "db.instructions", db_tests;
    "db.uarch", uarch_tests;
    "db.flat",
    [ QCheck_alcotest.to_alcotest qcheck_flat_differential; mnemonic_keys ] ]
