open Facile_uarch
open Facile_core

let uop_masks (b : Block.t) =
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

let dedup l =
  List.fold_left
    (fun acc x -> if List.exists (Port.equal x) acc then acc else x :: acc)
    [] l

let best (b : Block.t) =
  let masks = uop_masks b in
  let pc = dedup masks in
  let pc' =
    dedup
      (List.concat_map (fun a -> List.map (fun c -> Port.union a c) pc) pc)
  in
  List.fold_left
    (fun acc comb ->
      let count =
        List.length (List.filter (fun m -> Port.subset m comb) masks)
      in
      let bound = float_of_int count /. float_of_int (Port.cardinal comb) in
      match acc with
      | Some (_, _, b0) when b0 >= bound -> acc
      | _ -> Some (comb, count, bound))
    None pc'

let throughput b =
  match best b with Some (_, _, bound) -> bound | None -> 0.0

let throughput_exhaustive (b : Block.t) =
  let masks = uop_masks b in
  if masks = [] then 0.0
  else begin
    (* only ports that actually appear matter; enumerate all subsets of
       their union *)
    let union = List.fold_left Port.union Port.empty masks in
    let ports = Port.to_list union in
    let k = List.length ports in
    let best = ref 0.0 in
    for subset = 1 to (1 lsl k) - 1 do
      let pc =
        List.fold_left
          (fun acc (bit, p) ->
            if subset land (1 lsl bit) <> 0 then Port.union acc (Port.singleton p)
            else acc)
          Port.empty
          (List.mapi (fun i p -> (i, p)) ports)
      in
      let count =
        List.length (List.filter (fun m -> Port.subset m pc) masks)
      in
      let bound = float_of_int count /. float_of_int (Port.cardinal pc) in
      if bound > !best then best := bound
    done;
    !best
  end
