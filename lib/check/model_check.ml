(* Model-invariant checks, the mdl- rule family, over a seeded Genblock
   corpus: the prediction must be the max over exactly the candidate
   components its front-end path declares, every component bound must
   be finite and non-negative, the bottleneck list must be consistent
   with the reported cycles, and the U/L/Auto notions must dispatch
   coherently on [Block.ends_in_branch]. *)

open Facile_uarch
open Facile_core
open Facile_bhive

let error = Finding.error
let eps = 1e-9

let where cfg tag = Printf.sprintf "%s:%s" cfg.Config.abbrev tag

(* Candidate components implied by the notion/front-end path; mirrors
   the combination rule of section 4.1 / 4.2 (Equations 1-3)
   independently of [Model.predict]'s internal plumbing. *)
let candidates (p : Model.prediction) =
  let fe =
    match p.Model.fe_path with
    | Model.FE_none -> [ Model.Predec; Model.Dec ]
    | Model.FE_decoders -> [ Model.Predec; Model.Dec ]
    | Model.FE_lsd -> [ Model.LSD ]
    | Model.FE_dsb -> [ Model.DSB ]
  in
  fe @ [ Model.Issue; Model.Ports; Model.Precedence ]

let check_prediction cfg tag ~notion (p : Model.prediction) =
  let w = where cfg tag in
  let err rule msg = [ error rule w msg ] in
  let finite =
    List.concat_map
      (fun c ->
        let v = Model.value p c in
        if Float.is_finite v && v >= 0.0 then []
        else
          err "mdl-finite"
            (Printf.sprintf "%s bound is %g" (Model.component_name c) v))
      Model.all_components
  in
  let max_rule =
    let expected =
      List.fold_left
        (fun acc c -> Float.max acc (Model.value p c))
        0.0 (candidates p)
    in
    if Float.abs (p.Model.cycles -. expected) <= eps then []
    else
      err "mdl-max"
        (Printf.sprintf "cycles %g is not the max %g over candidates %s"
           p.Model.cycles expected
           (String.concat "," (List.map Model.component_name (candidates p))))
  in
  let bottleneck =
    (if p.Model.cycles > 0.0 && p.Model.bottleneck_mask = 0 then
       err "mdl-bottleneck" "positive cycles but empty bottleneck list"
     else [])
    @ List.concat_map
        (fun c ->
          if Float.abs (Model.value p c -. p.Model.cycles) <= eps then []
          else
            err "mdl-bottleneck"
              (Printf.sprintf "bottleneck %s bound differs from cycles %g"
                 (Model.component_name c) p.Model.cycles))
        (Model.bottlenecks p)
  in
  let fe =
    match notion, p.Model.fe_path with
    | `Unrolled, Model.FE_none -> []
    | `Unrolled, _ ->
      err "mdl-notion" "TP_U prediction carries a loop front-end path"
    | `Loop, Model.FE_none -> err "mdl-notion" "TP_L prediction reports FE_none"
    | `Loop, _ -> []
  in
  finite @ max_rule @ bottleneck @ fe

let same_prediction (a : Model.prediction) (b : Model.prediction) =
  Float.abs (a.Model.cycles -. b.Model.cycles) <= eps
  && a.Model.bottleneck_mask = b.Model.bottleneck_mask
  && a.Model.fe_path = b.Model.fe_path

let check_block cfg tag insts =
  match Block.of_instructions cfg insts with
  | b ->
    let pu = Model.predict ~notion:`Unrolled b in
    let pl = Model.predict ~notion:`Loop b in
    let pa = Model.predict ~notion:`Auto b in
    let dispatch =
      let want = if Block.ends_in_branch b then pl else pu in
      if same_prediction pa want then []
      else
        [ error "mdl-notion" (where cfg tag)
            "Auto notion disagrees with ends_in_branch dispatch" ]
    in
    check_prediction cfg tag ~notion:`Unrolled pu
    @ check_prediction cfg tag ~notion:`Loop pl
    @ dispatch
  | exception exn ->
    [ error "mdl-corpus" (where cfg tag)
        (Printf.sprintf "generated block failed analysis: %s"
           (Printexc.to_string exn)) ]

(* Seeded corpus: every profile, straight-line and looped variants.
   FMA-free so all nine arches accept every block. *)
let corpus ~seed ~blocks_per_profile =
  let rng = Prng.create seed in
  List.concat_map
    (fun profile ->
      List.concat_map
        (fun i ->
          let len = 3 + ((i * 7) mod 14) in
          let body = Genblock.body rng profile ~allow_fma:false ~len in
          let tag k =
            Printf.sprintf "%s/%d/%s" (Genblock.profile_name profile) i k
          in
          [ (tag "u", body); (tag "l", Genblock.looped body) ])
        (List.init blocks_per_profile (fun i -> i)))
    Genblock.all_profiles

let run ?(cfgs = Config.all) ?(seed = 0xFAC17E) ?(blocks_per_profile = 4) () =
  let blocks = corpus ~seed ~blocks_per_profile in
  List.concat_map
    (fun cfg ->
      List.concat_map (fun (tag, insts) -> check_block cfg tag insts) blocks)
    cfgs
  @ [ Finding.info "mdl-coverage" "corpus"
        (Printf.sprintf "%d blocks x %d arches checked under U, L and Auto"
           (List.length blocks) (List.length cfgs)) ]
