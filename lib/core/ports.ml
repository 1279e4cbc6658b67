open Facile_uarch

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

let span = Facile_obs.Obs.histogram "model.ports"

(* Fast path: the same pairwise-union bound over the precomputed
   [port_masks] array, with the two dedup tables in the arena. The
   result is the maximum of the same set of bounds the list-based [best]
   folds over, so the two paths return identical floats (the list path's
   dedup order only affects which combination ties are reported on).
   Allocation-free after arena warm-up. *)
let throughput_in (a : Arena.t) (b : Block.t) =
  Facile_obs.Obs.timed span @@ fun () ->
  let masks = b.Block.flat.Block.port_masks in
  let nm = Array.length masks in
  if nm = 0 then 0.0
  else begin
    (* dedup with multiplicities: [cnt.(j)] µops share mask [pc.(j)] *)
    let pc = Arena.ports a.Arena.ports_dedup nm in
    a.Arena.ports_dedup <- pc;
    let cnt = Arena.ints a.Arena.ports_cnt nm in
    a.Arena.ports_cnt <- cnt;
    let np = ref 0 in
    for i = 0 to nm - 1 do
      let m = masks.(i) in
      let slot = ref (-1) in
      for j = 0 to !np - 1 do
        if Port.equal pc.(j) m then slot := j
      done;
      if !slot >= 0 then cnt.(!slot) <- cnt.(!slot) + 1
      else begin
        pc.(!np) <- m;
        cnt.(!np) <- 1;
        incr np
      end
    done;
    let np = !np in
    let pc2 = Arena.ports a.Arena.ports_pairs (np * np) in
    a.Arena.ports_pairs <- pc2;
    let np2 = ref 0 in
    for i = 0 to np - 1 do
      for j = 0 to np - 1 do
        let u = Port.union pc.(i) pc.(j) in
        let seen = ref false in
        for k = 0 to !np2 - 1 do
          if Port.equal pc2.(k) u then seen := true
        done;
        if not !seen then begin
          pc2.(!np2) <- u;
          incr np2
        end
      done
    done;
    let best = ref 0.0 in
    for k = 0 to !np2 - 1 do
      let comb = pc2.(k) in
      let count = ref 0 in
      for j = 0 to np - 1 do
        if Port.subset pc.(j) comb then count := !count + cnt.(j)
      done;
      let bound =
        float_of_int !count /. float_of_int (Port.cardinal comb)
      in
      if bound > !best then best := bound
    done;
    !best
  end

let throughput b = Arena.with_ (fun a -> throughput_in a b)

(* Reference path: the pre-flattening list pipeline. *)
let throughput_ref b =
  Facile_obs.Obs.timed span @@ fun () ->
  match best b with Some (_, _, bound) -> bound | None -> 0.0

let critical_combination b =
  match best b with Some (comb, count, _) -> Some (comb, count) | None -> None

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
