open Facile_uarch

let span = Facile_obs.Obs.histogram "model.ports"

(* The pairwise-union bound over the precomputed [port_masks] array,
   with the two dedup tables in the arena.  It leaves the combination
   that reached the bound, the first of them, in [ports_pairs.(0)].
   Allocation-free after arena warm-up. *)
let best_in (a : Arena.t) (b : Block.t) =
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
    let best = ref 0.0 and arg = ref 0 in
    for k = 0 to !np2 - 1 do
      let comb = pc2.(k) in
      let count = ref 0 in
      for j = 0 to np - 1 do
        if Port.subset pc.(j) comb then count := !count + cnt.(j)
      done;
      let bound =
        float_of_int !count /. float_of_int (Port.cardinal comb)
      in
      if bound > !best then begin
        best := bound;
        arg := k
      end
    done;
    pc2.(0) <- pc2.(!arg);
    !best
  end

let throughput_in a b = Facile_obs.Obs.timed span @@ fun () -> best_in a b

let throughput b = Arena.with_ (fun a -> throughput_in a b)

let critical_combination (b : Block.t) =
  Arena.with_ @@ fun a ->
  if best_in a b = 0.0 then None
  else begin
    let comb = a.Arena.ports_pairs.(0) in
    let count =
      Array.fold_left
        (fun n m -> if Port.subset m comb then n + 1 else n)
        0 b.Block.flat.Block.port_masks
    in
    Some (comb, count)
  end
