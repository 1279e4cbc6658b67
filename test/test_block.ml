(* Block analysis fills [Block.flat] in one pass over the layouts; the
   per-instruction lists are views derived from the block afterwards.
   These tests hold the two spellings together: every [flat] field is
   recomputed from the views by the list walk that used to build it,
   and the views are checked against the decoder's and encoder's own
   layouts. *)

open Facile_x86
open Facile_uarch
open Facile_db
open Facile_core
module Baselines = Facile_baselines.Baselines
module Genblock = Facile_bhive.Genblock

(* The oracle: [flat] as the list pipeline computed it, from the
   [entries]/[logicals] views, extended to the latency and read/write
   code arrays [Precedence] reads. *)
let build_flat (es : Block.entry list) (ls : Block.logical list) =
  let open Block in
  let n_log = List.length ls in
  let l_fused = Array.make n_log 0 in
  let l_complex = Array.make n_log false in
  let l_avail = Array.make n_log 0 in
  let l_branch = Array.make n_log false in
  let l_mfused = Array.make n_log false in
  let l_addr_mask = Array.make n_log 0 in
  let l_latency = Array.make n_log 0 in
  let r_off = Array.make (n_log + 1) 0 in
  let w_off = Array.make (n_log + 1) 0 in
  let r_code = ref [] and w_code = ref [] in
  let tot_fused = ref 0 in
  let tot_issued = ref 0 in
  let port_masks = ref [] in
  let addr_mask (l : logical) =
    if not l.loads then 0
    else
      List.fold_left
        (fun acc inst ->
          match Inst.mem_operand inst with
          | Some m ->
            let acc =
              match m.Operand.base with
              | Some g -> acc lor (1 lsl Register.gpr_index g)
              | None -> acc
            in
            (match m.Operand.index with
             | Some (g, _) -> acc lor (1 lsl Register.gpr_index g)
             | None -> acc)
          | None -> acc)
        0 l.insts
  in
  List.iteri
    (fun i l ->
      l_fused.(i) <- l.fused_uops;
      l_complex.(i) <- l.complex_decode;
      l_avail.(i) <- l.available_simple_dec;
      l_branch.(i) <- l.is_branch;
      l_mfused.(i) <- l.macro_fused;
      l_addr_mask.(i) <- addr_mask l;
      l_latency.(i) <- l.latency;
      let reads = List.map Semantics.res_code l.reads in
      let writes = List.map Semantics.res_code l.writes in
      r_off.(i + 1) <- r_off.(i) + List.length reads;
      w_off.(i + 1) <- w_off.(i) + List.length writes;
      r_code := List.rev_append reads !r_code;
      w_code := List.rev_append writes !w_code;
      tot_fused := !tot_fused + l.fused_uops;
      tot_issued := !tot_issued + l.issued_uops;
      if not l.eliminated then
        List.iter
          (fun (u : Db.uop) ->
            if not (Port.is_empty u.Db.ports) then
              port_masks := u.Db.ports :: !port_masks)
          l.dispatched)
    ls;
  let e_last =
    List.map (fun e -> e.layout.Encode.off + e.layout.Encode.len - 1) es
  in
  let rec jcc_check = function
    | a :: b :: rest when a.fuses_with_next ->
      touches a.layout.Encode.off (b.layout.Encode.off + b.layout.Encode.len)
      || jcc_check rest
    | a :: rest when Inst.is_branch a.inst ->
      touches a.layout.Encode.off (a.layout.Encode.off + a.layout.Encode.len)
      || jcc_check rest
    | _ :: rest -> jcc_check rest
    | [] -> false
  and touches s e = s / 32 <> (e - 1) / 32 || e mod 32 = 0 in
  { l_fused; l_complex; l_avail; l_branch; l_mfused; l_addr_mask;
    l_latency; r_off;
    r_code = Array.of_list (List.rev !r_code);
    w_off;
    w_code = Array.of_list (List.rev !w_code);
    port_masks = Array.of_list (List.rev !port_masks);
    e_last = Array.of_list e_last;
    e_opc =
      Array.of_list
        (List.map (fun e -> e.layout.Encode.nominal_opcode_off) es);
    e_lcp = Array.of_list (List.map (fun e -> e.layout.Encode.lcp) es);
    tot_fused = !tot_fused;
    tot_issued = !tot_issued;
    ends_branch =
      (match List.rev es with
       | e :: _ -> Inst.is_branch e.inst
       | [] -> false);
    jcc_affected = jcc_check es }

(* Field by field, so a failure names the field. *)
let diff_flat (a : Block.flat) (b : Block.flat) =
  let open Block in
  let ( <?> ) name same = if same then [] else [ name ] in
  List.concat
    [ "l_fused" <?> (a.l_fused = b.l_fused);
      "l_complex" <?> (a.l_complex = b.l_complex);
      "l_avail" <?> (a.l_avail = b.l_avail);
      "l_branch" <?> (a.l_branch = b.l_branch);
      "l_mfused" <?> (a.l_mfused = b.l_mfused);
      "l_addr_mask" <?> (a.l_addr_mask = b.l_addr_mask);
      "l_latency" <?> (a.l_latency = b.l_latency);
      "r_off" <?> (a.r_off = b.r_off);
      "r_code" <?> (a.r_code = b.r_code);
      "w_off" <?> (a.w_off = b.w_off);
      "w_code" <?> (a.w_code = b.w_code);
      "port_masks" <?> (a.port_masks = b.port_masks);
      "e_last" <?> (a.e_last = b.e_last);
      "e_opc" <?> (a.e_opc = b.e_opc);
      "e_lcp" <?> (a.e_lcp = b.e_lcp);
      "tot_fused" <?> (a.tot_fused = b.tot_fused);
      "tot_issued" <?> (a.tot_issued = b.tot_issued);
      "ends_branch" <?> (a.ends_branch = b.ends_branch);
      "jcc_affected" <?> (a.jcc_affected = b.jcc_affected) ]

(* The views against the front end's own layouts, the logicals' latency
   against their first instruction's descriptor, and [flat] against the
   oracle.  [None] when all hold, else what differs. *)
let check_block (b : Block.t) (layouts : Encode.layout list) =
  let entries = Block.entries b and logicals = Block.logicals b in
  let rec first_latencies = function
    | (a : Block.entry) :: _ :: rest when a.Block.fuses_with_next ->
      a.Block.desc.Db.latency :: first_latencies rest
    | a :: rest -> a.Block.desc.Db.latency :: first_latencies rest
    | [] -> []
  in
  let problems =
    List.concat
      [ (if List.map (fun (e : Block.entry) -> e.Block.layout) entries
            = layouts
         then []
         else [ "entry layouts" ]);
        (if Array.to_list b.Block.insts
            = List.map (fun (l : Encode.layout) -> l.Encode.inst) layouts
         then []
         else [ "insts" ]);
        (if List.map (fun (l : Block.logical) -> l.Block.latency) logicals
            = first_latencies entries
         then []
         else [ "logical latencies" ]);
        diff_flat (build_flat entries logicals) b.Block.flat ]
  in
  if problems = [] then None else Some (String.concat ", " problems)

let cfgs = Config.all @ List.map Baselines.defused_cfg Config.all

let cfg_name (cfg : Config.t) =
  if Flat.is_canonical cfg then cfg.Config.abbrev
  else cfg.Config.abbrev ^ " (defused)"

let qcheck_flat_equals_views =
  QCheck.Test.make ~name:"flat equals what the list views imply" ~count:200
    QCheck.(triple small_nat (int_range 1 12) (int_range 0 7))
    (fun (seed, len, profile_idx) ->
      let profiles = Genblock.all_profiles in
      let profile = List.nth profiles (profile_idx mod List.length profiles) in
      let rng = Facile_bhive.Prng.create (succ seed) in
      let len = max 1 (min 12 len) in
      let body = Genblock.body rng profile ~allow_fma:true ~len in
      let check cfg insts =
        let bytes, enc_layouts = Encode.encode_block insts in
        match Block.of_instructions cfg insts with
        | exception Db.Unsupported _ ->
          (* FMA or BMI before Haswell: both front ends refuse *)
          (match Block.of_bytes cfg bytes with
           | exception Db.Unsupported _ -> true
           | _ ->
             QCheck.Test.fail_reportf "%s: of_bytes accepts what \
                                       of_instructions refuses"
               (cfg_name cfg))
        | bi ->
          let bb = Block.of_bytes cfg bytes in
          let fail front why =
            QCheck.Test.fail_reportf "%s via %s: %s on\n%s" (cfg_name cfg)
              front why
              (String.concat "\n" (List.map Inst.to_string insts))
          in
          (match
             ( check_block bi enc_layouts,
               check_block bb (Decode.decode_block bytes) )
           with
           | Some why, _ -> fail "of_instructions" why
           | None, Some why -> fail "of_bytes" why
           | None, None ->
             if bi.Block.flat = bb.Block.flat then true
             else fail "both" "the front ends' flats differ")
      in
      List.for_all
        (fun cfg -> check cfg body && check cfg (Genblock.looped body))
        cfgs)

(* Allocation of [Block.of_bytes] once the arenas and tables are warm,
   over a fixed corpus of loops re-encoded to bytes: the decoded
   instructions and the flat arrays (about 680 words per block).
   Building per-instruction entry, logical and read/write lists on top
   costs about 1,630, well past the budget. *)
let of_bytes_words_budget = 800.0

let allocation_tests =
  [ Alcotest.test_case "Block.of_bytes allocation budget" `Quick (fun () ->
        let cfg = Config.by_arch Config.SKL in
        let codes =
          List.map
            (fun (c : Facile_bhive.Suite.case) ->
              (Block.of_instructions cfg c.Facile_bhive.Suite.loop).Block.bytes)
            (Facile_bhive.Suite.corpus ~seed:2023 ~size:100 ())
        in
        let pass () =
          List.iter
            (fun code -> ignore (Sys.opaque_identity (Block.of_bytes cfg code)))
            codes
        in
        pass ();
        let w0 = Gc.minor_words () in
        pass ();
        let per_block =
          (Gc.minor_words () -. w0) /. float_of_int (List.length codes)
        in
        if per_block > of_bytes_words_budget then
          Alcotest.failf "Block.of_bytes: %.1f minor words per block > %.0f"
            per_block of_bytes_words_budget) ]

let suite =
  [ "core.block",
    QCheck_alcotest.to_alcotest qcheck_flat_equals_views :: allocation_tests ]
