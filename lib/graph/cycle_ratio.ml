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
                (* set d around the cycle: root = e.dst with d = 0, then
                   in reverse cycle order *)
                List.iter (fun v -> r.(v) <- rc; state.(v) <- 2) cyc;
                d.(e.Digraph.dst) <- 0.0;
                let rev = List.rev cyc in
                (* rev = [ u_k; ...; u_1; root ], where policy u_k = root *)
                List.iter
                  (fun v ->
                    if v <> e.Digraph.dst then
                      match policy.(v) with
                      | Some pe ->
                        d.(v) <-
                          pe.Digraph.weight
                          -. (rc *. float_of_int pe.Digraph.count)
                          +. d.(pe.Digraph.dst)
                      | None -> assert false)
                  rev;
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
(* Howard's algorithm on raw edge arrays.

   [howard_flat] is the allocation-free spelling used by the Precedence
   hot path: the caller supplies the graph as parallel arrays (edges in
   insertion order, exactly as [Digraph.add_edge] would have received
   them) and all working storage lives in a caller-owned scratch that
   only grows. The control flow and, crucially, every iteration order
   (out-edges in insertion order, path unwinding from the top of the
   stack, cycle summation from the cycle root forward) mirror [howard]
   above, so the two return bit-identical floats on the same graph —
   property-tested in test/test_graph.ml. *)

type scratch = {
  mutable s_alive : bool array;
  mutable s_off0 : int array;  (* full CSR offsets (n+1) *)
  mutable s_adj0 : int array;  (* full CSR edge ids, insertion order *)
  mutable s_off : int array;  (* alive-filtered CSR offsets (n+1) *)
  mutable s_adj : int array;
  mutable s_cur : int array;  (* CSR fill cursors *)
  mutable s_policy : int array;  (* edge id, or -1 for sinks *)
  mutable s_r : float array;
  mutable s_d : float array;
  mutable s_state : int array;
  mutable s_stack : int array;
  s_tmp : float array;
      (* running float accumulators; OCaml float refs box on every
         update, float-array cells don't *)
}

let create_scratch () =
  { s_alive = [||]; s_off0 = [||]; s_adj0 = [||]; s_off = [||];
    s_adj = [||]; s_cur = [||]; s_policy = [||]; s_r = [||];
    s_d = [||]; s_state = [||]; s_stack = [||];
    s_tmp = Array.make 4 0.0 }

let cap n =
  let c = ref 16 in
  while !c < n do
    c := !c * 2
  done;
  !c

let grow_i buf n = if Array.length buf >= n then buf else Array.make (cap n) 0

let grow_b buf n =
  if Array.length buf >= n then buf else Array.make (cap n) false

let grow_f buf n =
  if Array.length buf >= n then buf else Array.make (cap n) 0.0

let howard_flat ~scratch:s ~n ~m ~src ~dst ~weight ~count =
  if n = 0 then None
  else begin
    (* Full CSR over all edges, per-source buckets in insertion order. *)
    let off0 = grow_i s.s_off0 (n + 1) in
    s.s_off0 <- off0;
    let adj0 = grow_i s.s_adj0 (max m 1) in
    s.s_adj0 <- adj0;
    let cur = grow_i s.s_cur (n + 1) in
    s.s_cur <- cur;
    Array.fill off0 0 (n + 1) 0;
    for k = 0 to m - 1 do
      off0.(src.(k) + 1) <- off0.(src.(k) + 1) + 1
    done;
    for u = 1 to n do
      off0.(u) <- off0.(u) + off0.(u - 1)
    done;
    Array.blit off0 0 cur 0 n;
    for k = 0 to m - 1 do
      let u = src.(k) in
      adj0.(cur.(u)) <- k;
      cur.(u) <- cur.(u) + 1
    done;
    (* Trim to the cyclic core (same fixpoint as [howard]). *)
    let alive = grow_b s.s_alive n in
    s.s_alive <- alive;
    Array.fill alive 0 n true;
    let changed = ref true in
    while !changed do
      changed := false;
      for u = 0 to n - 1 do
        if alive.(u) then begin
          let has_out = ref false in
          for k = off0.(u) to off0.(u + 1) - 1 do
            if alive.(dst.(adj0.(k))) then has_out := true
          done;
          if not !has_out then begin
            alive.(u) <- false;
            changed := true
          end
        end
      done
    done;
    (* Alive-filtered CSR; dead sources keep empty buckets. *)
    let off = grow_i s.s_off (n + 1) in
    s.s_off <- off;
    let adj = grow_i s.s_adj (max m 1) in
    s.s_adj <- adj;
    Array.fill off 0 (n + 1) 0;
    for k = 0 to m - 1 do
      if alive.(src.(k)) && alive.(dst.(k)) then
        off.(src.(k) + 1) <- off.(src.(k) + 1) + 1
    done;
    for u = 1 to n do
      off.(u) <- off.(u) + off.(u - 1)
    done;
    Array.blit off 0 cur 0 n;
    for k = 0 to m - 1 do
      let u = src.(k) in
      if alive.(u) && alive.(dst.(k)) then begin
        adj.(cur.(u)) <- k;
        cur.(u) <- cur.(u) + 1
      end
    done;
    let policy = grow_i s.s_policy n in
    s.s_policy <- policy;
    for u = 0 to n - 1 do
      policy.(u) <- (if off.(u + 1) > off.(u) then adj.(off.(u)) else -1)
    done;
    let r = grow_f s.s_r n in
    s.s_r <- r;
    let d = grow_f s.s_d n in
    s.s_d <- d;
    let state = grow_i s.s_state n in
    s.s_state <- state;
    let stack = grow_i s.s_stack n in
    s.s_stack <- stack;
    let tmp = s.s_tmp in
    let evaluate () =
      Array.fill state 0 n 0;
      (* 0 = white, 1 = on current path, 2 = done *)
      Array.fill r 0 n minus_huge;
      Array.fill d 0 n 0.0;
      for s0 = 0 to n - 1 do
        if state.(s0) = 0 then begin
          let sp = ref 0 in
          let u = ref s0 in
          let stop = ref false in
          while not !stop do
            state.(!u) <- 1;
            stack.(!sp) <- !u;
            incr sp;
            let pe = policy.(!u) in
            if pe < 0 then begin
              (* sink: ratio minus_huge *)
              state.(!u) <- 2;
              stop := true
            end
            else begin
              let v = dst.(pe) in
              if state.(v) = 1 then begin
                (* found a new cycle: v .. !u on top of the stack *)
                let root = ref (!sp - 1) in
                while stack.(!root) <> v do
                  decr root
                done;
                tmp.(0) <- 0.0;
                let sum_t = ref 0 in
                for j = !root to !sp - 1 do
                  let p = policy.(stack.(j)) in
                  tmp.(0) <- tmp.(0) +. weight.(p);
                  sum_t := !sum_t + count.(p)
                done;
                let rc =
                  if !sum_t = 0 then
                    if tmp.(0) > eps then
                      failwith "Cycle_ratio.howard: cycle with zero count"
                    else minus_huge
                  else tmp.(0) /. float_of_int !sum_t
                in
                for j = !root to !sp - 1 do
                  r.(stack.(j)) <- rc;
                  state.(stack.(j)) <- 2
                done;
                d.(v) <- 0.0;
                for j = !sp - 1 downto !root do
                  let x = stack.(j) in
                  if x <> v then begin
                    let p = policy.(x) in
                    d.(x) <-
                      weight.(p)
                      -. (rc *. float_of_int count.(p))
                      +. d.(dst.(p))
                  end
                done;
                stop := true
              end
              else if state.(v) = 2 then begin
                state.(!u) <- 2;
                stop := true
              end
              else u := v
            end
          done;
          (* unwind the path: propagate from each node's successor *)
          for j = !sp - 1 downto 0 do
            let v = stack.(j) in
            if state.(v) = 1 || (state.(v) = 2 && r.(v) = minus_huge) then begin
              let p = policy.(v) in
              (if p < 0 then begin
                 r.(v) <- minus_huge;
                 d.(v) <- 0.0
               end
               else begin
                 let w = dst.(p) in
                 if r.(w) <= minus_huge /. 2.0 then begin
                   r.(v) <- minus_huge;
                   d.(v) <- 0.0
                 end
                 else begin
                   r.(v) <- r.(w);
                   d.(v) <-
                     weight.(p)
                     -. (r.(w) *. float_of_int count.(p))
                     +. d.(w)
                 end
               end);
              state.(v) <- 2
            end
          done
        end
      done
    in
    let improve () =
      let improved = ref false in
      for u = 0 to n - 1 do
        let curp = policy.(u) in
        if curp >= 0 then begin
          let best = ref curp in
          (* tmp.(1) = best ratio, tmp.(2) = best value *)
          tmp.(1) <- r.(dst.(curp));
          tmp.(2) <-
            weight.(curp)
            -. (r.(dst.(curp)) *. float_of_int count.(curp))
            +. d.(dst.(curp));
          for k = off.(u) to off.(u + 1) - 1 do
            let e = adj.(k) in
            let r2 = r.(dst.(e)) in
            let v2 =
              weight.(e) -. (r2 *. float_of_int count.(e)) +. d.(dst.(e))
            in
            if
              r2 > tmp.(1) +. eps
              || (abs_float (r2 -. tmp.(1)) <= eps && v2 > tmp.(2) +. 1e-6)
            then begin
              best := e;
              tmp.(1) <- r2;
              tmp.(2) <- v2
            end
          done;
          if !best <> curp then begin
            policy.(u) <- !best;
            improved := true
          end
        end
      done;
      !improved
    in
    let guard = ref ((n * m) + 64) in
    evaluate ();
    while improve () && !guard > 0 do
      decr guard;
      evaluate ()
    done;
    if !guard <= 0 then begin
      (* extremely defensive: fall back to the parametric search on a
         materialized graph (never reached on dependence graphs) *)
      let g = Digraph.create ~n in
      for k = 0 to m - 1 do
        Digraph.add_edge g ~src:src.(k) ~dst:dst.(k) ~weight:weight.(k)
          ~count:count.(k)
      done;
      lawler g
    end
    else begin
      tmp.(3) <- minus_huge;
      for u = 0 to n - 1 do
        if r.(u) > tmp.(3) then tmp.(3) <- r.(u)
      done;
      if tmp.(3) <= minus_huge /. 2.0 then None else Some tmp.(3)
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
