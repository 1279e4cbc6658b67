let eps = 1e-9

(* A very negative finite sentinel used instead of [neg_infinity] so
   that [r * count] never produces NaN for count = 0. *)
let minus_huge = -1e30

(* ------------------------------------------------------------------ *)
(* Lawler's parametric search with positive-cycle detection.           *)

(* Does the graph contain a cycle of positive weight under the edge
   reweighting [w - r * t]? Bellman-Ford from a virtual super-source. *)
let has_positive_cycle g rho =
  let n = Digraph.n_nodes g in
  let dist = Array.make (max n 1) 0.0 in
  let edges = Digraph.edges g in
  let changed = ref true in
  let pass = ref 0 in
  while !changed && !pass <= n do
    changed := false;
    incr pass;
    List.iter
      (fun e ->
        let w = e.Digraph.weight -. (rho *. float_of_int e.Digraph.count) in
        if dist.(e.Digraph.src) +. w > dist.(e.Digraph.dst) +. 1e-12 then begin
          dist.(e.Digraph.dst) <- dist.(e.Digraph.src) +. w;
          changed := true
        end)
      edges
  done;
  !changed

let lawler ?(epsilon = 1e-9) g =
  let bound =
    List.fold_left
      (fun acc e -> acc +. abs_float e.Digraph.weight)
      1.0 (Digraph.edges g)
  in
  let lo = -.bound and hi = bound in
  if has_positive_cycle g hi then
    failwith "Cycle_ratio.lawler: cycle with zero count";
  if not (has_positive_cycle g lo) then None
  else begin
    let lo = ref lo and hi = ref hi in
    while !hi -. !lo > epsilon do
      let mid = 0.5 *. (!lo +. !hi) in
      if has_positive_cycle g mid then lo := mid else hi := mid
    done;
    Some (0.5 *. (!lo +. !hi))
  end

(* ------------------------------------------------------------------ *)
(* Howard's policy iteration for the maximum cycle ratio.              *)

let howard g =
  let n = Digraph.n_nodes g in
  if n = 0 then None
  else begin
    (* Trim to the cyclic core: repeatedly drop nodes with no outgoing
       edge into the remaining set. Every surviving policy path then
       necessarily reaches a cycle, so node ratios stay finite and the
       improvement step cannot get stuck behind a sink. *)
    let alive = Array.make n true in
    let changed = ref true in
    while !changed do
      changed := false;
      for u = 0 to n - 1 do
        if alive.(u) then begin
          let has_out =
            List.exists
              (fun e -> alive.(e.Digraph.dst))
              (Digraph.out_edges g u)
          in
          if not has_out then begin
            alive.(u) <- false;
            changed := true
          end
        end
      done
    done;
    let out =
      Array.init n (fun u ->
          if not alive.(u) then [||]
          else
            Array.of_list
              (List.filter
                 (fun e -> alive.(e.Digraph.dst))
                 (Digraph.out_edges g u)))
    in
    let policy =
      Array.init n (fun u -> if Array.length out.(u) = 0 then None else Some out.(u).(0))
    in
    let r = Array.make n minus_huge in
    let d = Array.make n 0.0 in
    (* Evaluate the current policy: every node following its policy edge
       either reaches a cycle (giving it that cycle's ratio) or a sink
       (ratio stays [minus_huge]). *)
    let evaluate () =
      let state = Array.make n 0 in
      (* 0 = white, 1 = on current path, 2 = done *)
      Array.fill r 0 n minus_huge;
      Array.fill d 0 n 0.0;
      for s = 0 to n - 1 do
        if state.(s) = 0 then begin
          (* follow the policy, recording the path *)
          let path = ref [] in
          let u = ref s in
          let stop = ref false in
          while not !stop do
            state.(!u) <- 1;
            path := !u :: !path;
            match policy.(!u) with
            | None ->
              (* sink: ratio minus_huge *)
              state.(!u) <- 2;
              stop := true
            | Some e ->
              if state.(e.Digraph.dst) = 1 then begin
                (* found a new cycle: e.dst .. !u *)
                let rec cycle_nodes acc = function
                  | [] -> assert false
                  | v :: rest ->
                    if v = e.Digraph.dst then v :: acc
                    else cycle_nodes (v :: acc) rest
                in
                let cyc = cycle_nodes [] !path in
                let sum_w = ref 0.0 and sum_t = ref 0 in
                List.iter
                  (fun v ->
                    match policy.(v) with
                    | Some pe ->
                      sum_w := !sum_w +. pe.Digraph.weight;
                      sum_t := !sum_t + pe.Digraph.count
                    | None -> assert false)
                  cyc;
                let rc =
                  if !sum_t = 0 then
                    if !sum_w > eps then
                      failwith "Cycle_ratio.howard: cycle with zero count"
                    else minus_huge
                  else !sum_w /. float_of_int !sum_t
                in
                (* set d around the cycle: d = 0 at its smallest node,
                   then backwards from that node's predecessor.  Rooted
                   at the node the walk closes on instead, a cycle the
                   policy keeps would get other potentials whenever a
                   walk entered it elsewhere, and the improvement step
                   could switch edges back and forth until the guard. *)
                List.iter (fun v -> r.(v) <- rc; state.(v) <- 2) cyc;
                let ring = Array.of_list cyc in
                (* ring.(j) -> ring.(j + 1) and the last -> ring.(0) *)
                let len = Array.length ring in
                let root = ref 0 in
                Array.iteri
                  (fun j v -> if v < ring.(!root) then root := j)
                  ring;
                d.(ring.(!root)) <- 0.0;
                for t = 1 to len - 1 do
                  let v = ring.((!root - t + len) mod len) in
                  match policy.(v) with
                  | Some pe ->
                    d.(v) <-
                      pe.Digraph.weight
                      -. (rc *. float_of_int pe.Digraph.count)
                      +. d.(pe.Digraph.dst)
                  | None -> assert false
                done;
                stop := true
              end
              else if state.(e.Digraph.dst) = 2 then begin
                state.(!u) <- 2;
                stop := true
              end
              else u := e.Digraph.dst
          done;
          (* unwind the path: propagate from each node's successor *)
          List.iter
            (fun v ->
              if state.(v) = 1 || (state.(v) = 2 && r.(v) = minus_huge) then begin
                (match policy.(v) with
                 | None -> r.(v) <- minus_huge; d.(v) <- 0.0
                 | Some pe ->
                   let w = pe.Digraph.dst in
                   if r.(w) <= minus_huge /. 2.0 then begin
                     r.(v) <- minus_huge; d.(v) <- 0.0
                   end
                   else begin
                     r.(v) <- r.(w);
                     d.(v) <-
                       pe.Digraph.weight
                       -. (r.(w) *. float_of_int pe.Digraph.count)
                       +. d.(w)
                   end);
                state.(v) <- 2
              end)
            !path
        end
      done
    in
    (* Improve: for each node pick the out-edge with the
       lexicographically best (successor ratio, reduced value). The
       current policy edge is scored with the same formula, so a switch
       happens only on a strict improvement. *)
    let improve () =
      let improved = ref false in
      for u = 0 to n - 1 do
        match policy.(u) with
        | None -> ()
        | Some cur ->
          let score e =
            let v = e.Digraph.dst in
            ( r.(v),
              e.Digraph.weight
              -. (r.(v) *. float_of_int e.Digraph.count)
              +. d.(v) )
          in
          let better (r1, v1) (r2, v2) =
            r1 > r2 +. eps
            || (abs_float (r1 -. r2) <= eps && v1 > v2 +. 1e-6)
          in
          let best = ref cur and best_score = ref (score cur) in
          Array.iter
            (fun e ->
              let s = score e in
              if better s !best_score then begin
                best := e;
                best_score := s
              end)
            out.(u);
          if !best != cur then begin
            policy.(u) <- Some !best;
            improved := true
          end
      done;
      !improved
    in
    let guard = ref ((n * Digraph.n_edges g) + 64) in
    evaluate ();
    while improve () && !guard > 0 do
      decr guard;
      evaluate ()
    done;
    if !guard <= 0 then
      (* extremely defensive: fall back to the parametric search *)
      lawler g
    else begin
      let best = Array.fold_left max minus_huge r in
      if best <= minus_huge /. 2.0 then None else Some best
    end
  end

(* ------------------------------------------------------------------ *)

let critical_cycle g r =
  let n = Digraph.n_nodes g in
  if n = 0 then None
  else begin
    let rho = r -. 1e-6 in
    let dist = Array.make n 0.0 in
    let pred = Array.make n None in
    let edges = Digraph.edges g in
    let last_updated = ref (-1) in
    for _pass = 0 to n do
      last_updated := -1;
      List.iter
        (fun e ->
          let w = e.Digraph.weight -. (rho *. float_of_int e.Digraph.count) in
          if dist.(e.Digraph.src) +. w > dist.(e.Digraph.dst) +. 1e-12 then begin
            dist.(e.Digraph.dst) <- dist.(e.Digraph.src) +. w;
            pred.(e.Digraph.dst) <- Some e;
            last_updated := e.Digraph.dst
          end)
        edges
    done;
    if !last_updated < 0 then None
    else begin
      (* walk back n steps to land inside the cycle, then collect it *)
      let u = ref !last_updated in
      for _ = 1 to n do
        match pred.(!u) with
        | Some e -> u := e.Digraph.src
        | None -> ()
      done;
      let start = !u in
      let rec collect v acc =
        match pred.(v) with
        | None -> None
        | Some e ->
          let acc = e :: acc in
          if e.Digraph.src = start then Some acc else collect e.Digraph.src acc
      in
      collect start []
    end
  end
