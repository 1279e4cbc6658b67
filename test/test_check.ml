(* The static checker checking itself: the shipped tables must come
   back clean, every rule family must fire on a seeded corruption
   (mutation self-tests), and the block-invariant analyzer must accept
   every Genblock block on every arch (no false positives). *)

open Facile_x86
open Facile_uarch
open Facile_check

let fired rule findings =
  List.exists
    (fun (f : Finding.t) ->
      f.Finding.rule = rule && f.Finding.severity = Finding.Error)
    findings

let assert_fires rule findings =
  if not (fired rule findings) then
    Alcotest.failf "expected rule %s to fire; got: %s" rule
      (String.concat "; " (List.map Finding.to_string findings))

let assert_clean findings =
  match Finding.errors findings with
  | [] -> ()
  | errs ->
    Alcotest.failf "expected no errors, got: %s"
      (String.concat "; " (List.map Finding.to_string errs))

let skl = Config.by_arch Config.SKL

(* ----- shipped tables are clean ----- *)

let test_shipped_clean () =
  let r = Check.run_all () in
  assert_clean r.Check.findings;
  Alcotest.(check bool) "ok" true (Check.ok r);
  Alcotest.(check int) "errors" 0 r.Check.n_error;
  (* each family contributes its coverage info line *)
  Alcotest.(check bool) "has info" true (r.Check.n_info >= 3)

let test_family_selection () =
  List.iter
    (fun fam ->
      let r = Check.run_all ~families:[ fam ] () in
      assert_clean r.Check.findings)
    Check.analyzer_names

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* The library entry point must reject unknown family names just like
   the CLI does (callers embedding the checker get the same contract). *)
let test_unknown_family () =
  List.iter
    (fun fams ->
      match Check.run_all ~families:fams () with
      | _ -> Alcotest.failf "run_all accepted %s" (String.concat "," fams)
      | exception Invalid_argument msg ->
        List.iter
          (fun valid ->
            Alcotest.(check bool)
              (Printf.sprintf "message lists %s" valid)
              true (contains msg valid))
          Check.analyzer_names)
    [ [ "nosuch" ]; [ "config"; "typo" ]; [ "flat"; "" ] ]

(* ----- config mutations ----- *)

let test_cfg_mutations () =
  let open Config in
  (* empty mandatory port set *)
  assert_fires "cfg-ports-empty"
    (Config_lint.lint_one { skl with pm = { skl.pm with alu = Port.empty } });
  (* a port-map field escaping the machine port set *)
  assert_fires "cfg-ports-subset"
    (Config_lint.lint_one
       { skl with pm = { skl.pm with alu = Port.of_list [ 15 ] } });
  (* ports no longer the union of the map *)
  assert_fires "cfg-ports-union"
    (Config_lint.lint_one { skl with ports = Port.of_list [ 0 ] });
  (* non-positive width *)
  assert_fires "cfg-width-positive"
    (Config_lint.lint_one { skl with issue_width = 0 });
  (* ordering violations *)
  assert_fires "cfg-width-order"
    (Config_lint.lint_one { skl with dsb_width = skl.issue_width - 1 });
  assert_fires "cfg-width-order"
    (Config_lint.lint_one { skl with idq_size = skl.rob_size + 1 });
  (* erratum/LSD contradiction: SKL has jcc_erratum set *)
  assert_fires "cfg-jcc-lsd"
    (Config_lint.lint_one { skl with lsd_enabled = true });
  (* duplicate abbreviation *)
  assert_fires "cfg-unique" (Config_lint.lint_unique [ skl; skl ]);
  (* capacity regression across generations *)
  assert_fires "cfg-generation-order"
    (Config_lint.lint_generation
       [ Config.by_arch Config.SNB; { skl with rob_size = 1 } ]);
  (* an undamaged config is clean *)
  assert_clean (Config_lint.lint_one skl)

(* ----- table mutations ----- *)

let test_tbl_mutations () =
  let add = Inst.make Inst.ADD
      [ Operand.Reg (Register.Gpr (Register.W64, Register.RAX));
        Operand.Reg (Register.Gpr (Register.W64, Register.RBX)) ]
  in
  let d = Facile_db.Db.describe skl add in
  let open Facile_db.Db in
  assert_fires "tbl-uop-count"
    (Table_check.check_desc skl add { d with fused_uops = 0 });
  assert_fires "tbl-uop-count"
    (Table_check.check_desc skl add { d with issued_uops = d.fused_uops - 1 });
  assert_fires "tbl-uop-count"
    (Table_check.check_desc skl add { d with dispatched = [] });
  (* corrupted port table entry: empty and out-of-machine port sets *)
  assert_fires "tbl-port-empty"
    (Table_check.check_desc skl add
       { d with
         dispatched = [ { kind = Compute; ports = Port.empty } ] });
  assert_fires "tbl-port-subset"
    (Table_check.check_desc skl add
       { d with
         dispatched = [ { kind = Compute; ports = Port.of_list [ 15 ] } ] });
  assert_fires "tbl-latency"
    (Table_check.check_desc skl add { d with latency = -1 });
  assert_fires "tbl-simple-dec"
    (Table_check.check_desc skl add { d with available_simple_dec = 99 });
  assert_fires "tbl-simple-dec"
    (Table_check.check_desc skl add { d with complex_decode = true });
  assert_clean (Table_check.check_desc skl add d);
  (* a mnemonic losing all enumerated forms *)
  assert_fires "tbl-missing-form" (Table_check.coverage [ (Inst.ADD, []) ]);
  (* feature-gate disagreement: corrupt the independent gate
     re-derivation and the cross-check must flag the DB/gate mismatch *)
  let snb = Config.by_arch Config.SNB in
  let fma =
    Inst.make Inst.VFMADD231PS
      [ Operand.Reg (Register.Xmm 1); Operand.Reg (Register.Xmm 2);
        Operand.Reg (Register.Xmm 3) ]
  in
  (* gate claims FMA exists everywhere, the DB rejects it on SNB *)
  assert_fires "tbl-hole"
    (Table_check.check_form ~requires:(fun _ -> false) snb fma);
  (* gate claims ADD is Haswell-only, the DB accepts it on SNB *)
  assert_fires "tbl-gate-leak"
    (Table_check.check_form ~requires:(fun _ -> true) snb add)

(* ----- codec mutations ----- *)

let test_codec_mutations () =
  let add = Inst.make Inst.ADD
      [ Operand.Reg (Register.Gpr (Register.W64, Register.RAX));
        Operand.Reg (Register.Gpr (Register.W64, Register.RBX)) ]
  in
  (* corrupt encoder length: a stray byte appended after the encoding *)
  let pad (e : Encode.encoded) =
    { e with Encode.bytes = e.Encode.bytes ^ "\x90" }
  in
  assert_fires "codec-length"
    (Codec_check.check_one ~encode:(fun i -> pad (Encode.encode i)) add);
  (* flipped LCP flag *)
  let flip (e : Encode.encoded) =
    { e with Encode.has_lcp = not e.Encode.has_lcp }
  in
  assert_fires "codec-lcp-meta"
    (Codec_check.check_one ~encode:(fun i -> flip (Encode.encode i)) add);
  (* corrupt opcode offset pointing into a non-prefix byte *)
  let skew (e : Encode.encoded) =
    { e with Encode.opcode_off = e.Encode.opcode_off + 1 }
  in
  assert_fires "codec-prefix-layout"
    (Codec_check.check_one ~encode:(fun i -> skew (Encode.encode i)) add);
  (* corrupt bytes: the decoder must expose the round-trip break *)
  let smash (e : Encode.encoded) =
    let b = Bytes.of_string e.Encode.bytes in
    Bytes.set b (Bytes.length b - 1) '\xc3';
    { e with Encode.bytes = Bytes.to_string b }
  in
  assert_fires "codec-roundtrip"
    (Codec_check.check_one ~encode:(fun i -> smash (Encode.encode i)) add);
  assert_clean (Codec_check.check_one add);
  (* a decoder that has lost its canonical-form check accepts, e.g.,
     the reverse register direction 48 03 D8 *)
  assert_fires "codec-canonical"
    (Codec_check.check_canonical ~decode:Reencode_decode.decode_block_lenient
       add);
  assert_clean (Codec_check.check_canonical add)

(* ----- model mutations ----- *)

let test_mdl_mutations () =
  let open Facile_core in
  let block =
    Block.of_instructions skl
      [ Inst.make Inst.ADD
          [ Operand.Reg (Register.Gpr (Register.W64, Register.RAX));
            Operand.Reg (Register.Gpr (Register.W64, Register.RBX)) ] ]
  in
  let p = Model.predict ~notion:`Unrolled block in
  (* [p] with some of its parts replaced *)
  let edit ?(cycles = p.Model.cycles) ?(value = Model.value p)
      ?(bottlenecks = Model.bottlenecks p) ?(fe_path = p.Model.fe_path) () =
    Model.make ~cycles ~value ~bottlenecks ~fe_path
  in
  assert_clean (Model_check.check_prediction skl "t" ~notion:`Unrolled p);
  (* prediction no longer the max over its candidates *)
  assert_fires "mdl-max"
    (Model_check.check_prediction skl "t" ~notion:`Unrolled
       (edit ~cycles:(p.Model.cycles +. 1.0) ()));
  (* a non-finite component bound *)
  assert_fires "mdl-finite"
    (Model_check.check_prediction skl "t" ~notion:`Unrolled
       (edit
          ~value:(fun c ->
            if c = Model.Ports then Float.nan else Model.value p c)
          ()));
  (* bottleneck list inconsistent with cycles: emptied despite a
     positive prediction *)
  assert_fires "mdl-bottleneck"
    (Model_check.check_prediction skl "t" ~notion:`Unrolled
       (edit ~bottlenecks:[] ()));
  (* and a listed bottleneck whose bound does not equal cycles *)
  assert_fires "mdl-bottleneck"
    (Model_check.check_prediction skl "t" ~notion:`Unrolled
       (edit
          ~value:(fun c ->
            if Model.is_bottleneck p c then Model.value p c +. 1.0
            else Model.value p c)
          ~cycles:(p.Model.cycles +. 1.0)
          ~bottlenecks:Model.all_components ()));
  (* notion/front-end-path contradiction *)
  assert_fires "mdl-notion"
    (Model_check.check_prediction skl "t" ~notion:`Loop
       (edit ~fe_path:Model.FE_none ()))

(* ----- no false positives on generated blocks ----- *)

let gen_block =
  let open QCheck in
  let profile =
    Gen.oneofl Facile_bhive.Genblock.all_profiles
  in
  make
    ~print:(fun (seed, _, looped, len) ->
      Printf.sprintf "seed=%d looped=%b len=%d" seed looped len)
    Gen.(
      quad (int_bound 100000) profile bool (int_range 1 12)
      |> map (fun (seed, p, looped, len) -> (seed, p, looped, len)))

let prop_no_false_positive =
  QCheck.Test.make ~count:60 ~name:"checker accepts every Genblock block"
    gen_block (fun (seed, profile, looped, len) ->
      let rng = Facile_bhive.Prng.create (seed + 1) in
      let body =
        Facile_bhive.Genblock.body rng profile ~allow_fma:false ~len
      in
      let insts =
        if looped then Facile_bhive.Genblock.looped body else body
      in
      List.for_all
        (fun cfg ->
          Finding.errors (Model_check.check_block cfg "prop" insts) = [])
        Config.all)

let suite =
  [ ( "check",
      [ Alcotest.test_case "shipped tables clean" `Quick test_shipped_clean;
        Alcotest.test_case "family selection" `Quick test_family_selection;
        Alcotest.test_case "unknown family rejected" `Quick
          test_unknown_family;
        Alcotest.test_case "config mutations" `Quick test_cfg_mutations;
        Alcotest.test_case "table mutations" `Quick test_tbl_mutations;
        Alcotest.test_case "codec mutations" `Quick test_codec_mutations;
        Alcotest.test_case "model mutations" `Quick test_mdl_mutations;
        QCheck_alcotest.to_alcotest prop_no_false_positive ] ) ]
