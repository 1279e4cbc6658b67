open Facile_uarch
open Facile_core
open Model

let raw_values_ref variant mode (b : Block.t) =
  let predec =
    if variant.simple_predec then Predec.simple b
    else Predec.throughput_ref ~mode b
  in
  let dec =
    if variant.simple_dec then Dec.simple b else Dec.throughput_ref b
  in
  [ Predec, predec;
    Dec, dec;
    LSD, Lsd.throughput_ref b;
    DSB, Dsb.throughput_ref b;
    Issue, Issue.throughput_ref b;
    Ports, Ports_ref.throughput b;
    Precedence, Precedence_ref.throughput b ]

let apply_idealized variant (c, v) =
  if List.mem c variant.idealized then (c, 0.0) else (c, v)

let combine_ref variant values candidates fe_path =
  let considered =
    match variant.only with
    | Some comps -> List.filter (fun (c, _) -> List.mem c comps) values
    | None ->
      List.filter
        (fun (c, _) ->
          List.mem c candidates && not (List.mem c variant.without))
        values
  in
  let considered = List.map (apply_idealized variant) considered in
  let cycles =
    List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 considered
  in
  let bottlenecks =
    List.filter_map
      (fun c ->
        match List.assoc_opt c considered with
        | Some v when cycles > 0.0 && abs_float (v -. cycles) < 1e-9 -> Some c
        | _ -> None)
      all_components
  in
  let values = List.map (apply_idealized variant) values in
  make ~cycles ~value:(fun c -> List.assoc c values) ~bottlenecks ~fe_path

let unrolled_ref variant b =
  let values = raw_values_ref variant `Unrolled b in
  combine_ref variant values [ Predec; Dec; Issue; Ports; Precedence ] FE_none

let looped_ref variant b =
  let values = raw_values_ref variant `Loop b in
  let cfg = b.Block.cfg in
  let fe_candidates, fe_path =
    if cfg.Config.jcc_erratum && Block.jcc_erratum_affected_ref b then
      ([ Predec; Dec ], FE_decoders)
    else if Lsd.applicable_ref b then ([ LSD ], FE_lsd)
    else ([ DSB ], FE_dsb)
  in
  combine_ref variant values
    (fe_candidates @ [ Issue; Ports; Precedence ])
    fe_path

let predict ?(variant = default) ?(notion = `Auto) b =
  match notion with
  | `Unrolled -> unrolled_ref variant b
  | `Loop -> looped_ref variant b
  | `Auto ->
    if Block.ends_in_branch_ref b then looped_ref variant b
    else unrolled_ref variant b
