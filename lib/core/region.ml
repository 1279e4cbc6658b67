open Facile_uarch

type weighted = { block : Block.t; weight : float }

type result = {
  cycles : float;
  naive : float;
  bottleneck : Model.component;
  component_values : (Model.component * float) list;
  per_block : (Model.prediction * float) list;
}

(* Frequency-weighted port-contention bound over the pooled µops of the
   whole region: same pairwise-combination heuristic as Ports, but each
   µop counts with its block's weight. *)
let pooled_ports blocks =
  let masks =
    List.concat_map
      (fun ((b : Block.t), w) ->
        List.concat_map
          (fun (l : Block.logical) ->
            if l.Block.eliminated then []
            else
              List.filter_map
                (fun (u : Facile_db.Db.uop) ->
                  if Port.is_empty u.Facile_db.Db.ports then None
                  else Some (u.Facile_db.Db.ports, w))
                l.Block.dispatched)
          (Block.logicals b))
      blocks
  in
  let pc =
    List.fold_left
      (fun acc (m, _) ->
        if List.exists (Port.equal m) acc then acc else m :: acc)
      [] masks
  in
  let pc' =
    List.fold_left
      (fun acc comb ->
        if List.exists (Port.equal comb) acc then acc else comb :: acc)
      []
      (List.concat_map (fun a -> List.map (Port.union a) pc) pc)
  in
  List.fold_left
    (fun best comb ->
      let weight_sum =
        List.fold_left
          (fun acc (m, w) -> if Port.subset m comb then acc +. w else acc)
          0.0 masks
      in
      Float.max best (weight_sum /. float_of_int (Port.cardinal comb)))
    0.0 pc'

let analyze (ws : weighted list) =
  if ws = [] then invalid_arg "Region.analyze: empty region";
  List.iter
    (fun w ->
      (* [nan <= 0.0] is false: test for what a weight must be *)
      if not (Float.is_finite w.weight && w.weight > 0.0) then
        invalid_arg "Region.analyze: weight is not finite and positive")
    ws;
  let sum f = List.fold_left (fun acc w -> acc +. f w.weight) 0.0 ws in
  (* a sum of finite weights can overflow: then divide by the largest
     first (dividing by 1.0 keeps every other sum bit for bit) *)
  let top =
    if Float.is_finite (sum Fun.id) then 1.0
    else List.fold_left (fun m w -> Float.max m w.weight) 0.0 ws
  in
  let total = sum (fun w -> w /. top) in
  let blocks = List.map (fun w -> (w.block, w.weight /. top /. total)) ws in
  let per_block =
    List.map (fun (b, w) -> (Model.predict b, w)) blocks
  in
  let naive =
    List.fold_left
      (fun acc ((p : Model.prediction), w) -> acc +. (w *. p.Model.cycles))
      0.0 per_block
  in
  (* aggregate: pooled ports, pooled issue, per-block weighted front end
     and precedence *)
  let weighted_value c =
    List.fold_left
      (fun acc ((p : Model.prediction), w) ->
        acc +. (w *. Model.value p c))
      0.0 per_block
  in
  let fe =
    (* each block's µops still have to come through the front end; the
       front-end work is serial across the trace *)
    List.fold_left
      (fun acc ((b : Block.t), w) ->
        let p = Model.predict b in
        let fe_bound =
          match p.Model.fe_path with
          | Model.FE_none | Model.FE_decoders ->
            Float.max (Model.value p Model.Predec) (Model.value p Model.Dec)
          | Model.FE_lsd -> Model.value p Model.LSD
          | Model.FE_dsb -> Model.value p Model.DSB
        in
        acc +. (w *. fe_bound))
      0.0 blocks
  in
  let issue = weighted_value Model.Issue in
  let ports = pooled_ports blocks in
  let precedence = weighted_value Model.Precedence in
  let component_values =
    [ Model.Predec, fe; Model.Issue, issue; Model.Ports, ports;
      Model.Precedence, precedence ]
  in
  let cycles =
    List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 component_values
  in
  let bottleneck =
    match
      List.find_opt
        (fun (_, v) -> abs_float (v -. cycles) < 1e-9)
        component_values
    with
    | Some (c, _) -> c
    | None -> Model.Issue
  in
  { cycles; naive; bottleneck; component_values; per_block }
