open Facile_x86

let resource_name = function
  | Semantics.Reg r -> Register.name r
  | Semantics.Flags -> "flags"

let span = Facile_obs.Obs.histogram "model.precedence"

(* ------------------------------------------------------------------ *)
(* The bound from a max-plus matrix over the loop-carried resources, in
   one forward pass over [Block.flat].

   In the dependence graph (the reference library builds it with
   labels), every edge stays inside one logical or goes forward in
   program order, except those of count 1, which run from the block's
   last writer of a resource to the reads of it that come before any
   write.  So every cycle crosses the loop back edge, and Precedence is
   the maximum cycle mean of the k x k matrix whose entry (u, v) is the
   longest path from u's value at iteration entry to v's value at
   iteration exit, over the k loop-carried resources: read before any
   write, and written somewhere.  Karp's algorithm gives it as one
   correctly rounded division of two integers whose ratio is the
   maximum, as Howard's does on the full graph, so the two return the
   same float. *)

(* Is code [c] a load-address register of the logical with GPR mask
   [mask]?  Address resources are always full-width GPRs, whose codes
   run from RAX's upwards in [gpr_index] order. *)
let rax_code =
  Semantics.res_code (Semantics.Reg (Register.Gpr (Register.W64, Register.RAX)))

let in_addr mask c =
  c >= rax_code && c < rax_code + 16
  && mask land (1 lsl (c - rax_code)) <> 0

(* The pass: returns k, and leaves in the arena
   - [prec_codes.(c)]: c's loop-carried index, or -1; [prec_codes.(nr + c)]:
     the block's last writer of c, or -1;
   - [prec_paths]: the matrix transposed (row v, column u: the longest
     path from u's entry value to v's exit value, -1 where there is
     none), room for Karp's table, then from [k * (2k + 1)], per logical
     that writes, the longest path from each loop-carried entry value
     to its result. *)
let pass (a : Arena.t) b =
  let fl = b.Block.flat in
  let lat = fl.Block.l_latency in
  let n = Array.length lat in
  let load_lat = b.Block.cfg.Facile_uarch.Config.load_latency in
  let amask = fl.Block.l_addr_mask in
  let roff = fl.Block.r_off and rcode = fl.Block.r_code in
  let woff = fl.Block.w_off and wcode = fl.Block.w_code in
  (* [codes.(c)]: first bit 1 = read before any write, bit 2 = written;
     then c's loop-carried index, or -1.  [codes.(nr + c)]: the logical
     whose result c holds, or -1 for its value at iteration entry. *)
  let nr = Semantics.n_res in
  let codes = Arena.ints a.Arena.prec_codes (2 * nr) in
  a.Arena.prec_codes <- codes;
  Array.fill codes 0 nr 0;
  for i = 0 to n - 1 do
    for ri = roff.(i) to roff.(i + 1) - 1 do
      if codes.(rcode.(ri)) = 0 then codes.(rcode.(ri)) <- 1
    done;
    for wi = woff.(i) to woff.(i + 1) - 1 do
      codes.(wcode.(wi)) <- codes.(wcode.(wi)) lor 2
    done
  done;
  let k = ref 0 in
  for c = 0 to nr - 1 do
    if codes.(c) = 3 then begin
      codes.(c) <- !k;
      incr k
    end
    else codes.(c) <- -1;
    codes.(nr + c) <- -1
  done;
  let k = !k in
  if k > 0 then begin
    (* [paths]: the matrix and Karp's table ([k * (2k + 1)] ints), then
       per logical that writes, the longest path from each loop-carried
       entry value to its result, -1 where there is none (latencies are
       non-negative, so every path weighs at least 0) *)
    let base = k * ((2 * k) + 1) in
    let paths = Arena.ints a.Arena.prec_paths (base + (n * k)) in
    a.Arena.prec_paths <- paths;
    for i = 0 to n - 1 do
      if woff.(i + 1) > woff.(i) then begin
        let o = base + (i * k) in
        Array.fill paths o k (-1);
        for ri = roff.(i) to roff.(i + 1) - 1 do
          let c = rcode.(ri) in
          (* the dependence graph's intra-instruction edge weight *)
          let w = lat.(i) + (if in_addr amask.(i) c then load_lat else 0) in
          let p = codes.(nr + c) in
          if p >= 0 then begin
            let po = base + (p * k) in
            for t = 0 to k - 1 do
              let d = paths.(po + t) in
              if d >= 0 && d + w > paths.(o + t) then paths.(o + t) <- d + w
            done
          end
          else begin
            let t = codes.(c) in
            if t >= 0 && w > paths.(o + t) then paths.(o + t) <- w
          end
        done;
        for wi = woff.(i) to woff.(i + 1) - 1 do
          codes.(nr + wcode.(wi)) <- i
        done
      end
    done;
    (* row v: the last writer's paths into v's exit value — the matrix
       transposed, which has the same cycle means *)
    for c = 0 to nr - 1 do
      let v = codes.(c) in
      if v >= 0 then
        Array.blit paths (base + (codes.(nr + c) * k)) paths (v * k) k
    done
  end;
  k

let throughput_in (a : Arena.t) b =
  Facile_obs.Obs.timed span @@ fun () ->
  let k = pass a b in
  let den = if k = 0 then 0 else Karp.max_cycle_mean ~n:k a.Arena.prec_paths in
  let num = if den = 0 then 0 else a.Arena.prec_paths.(k * k) in
  if num > 0 then float_of_int num /. float_of_int den else 0.0

let throughput b = Arena.with_ (fun a -> throughput_in a b)

(* ------------------------------------------------------------------ *)
(* The critical chain, read off the same pass.

   Karp's exact ratio num/den reweights each matrix edge to
   [den * w - num], under which no cycle weighs more than 0 and the
   critical ones weigh exactly 0.  Longest-path potentials [pi] then
   satisfy [pi u + den * w - num <= pi v] on every edge, with equality
   ("tight") on every edge of a critical cycle, and every cycle of
   tight edges weighs 0: it is critical.  The chain takes one such
   cycle of the matrix and expands each of its edges u -> v back into
   the dependence graph: from v's last writer, through the path
   vectors, each step to the first read whose producer's entry plus
   the edge weight equals this logical's entry, until a read of u's
   entry value. *)

let label i c dir =
  Printf.sprintf "%d:%s:%s" i
    (resource_name (Semantics.resource_of_code c)) dir

let critical_chain b =
  Arena.with_ @@ fun a ->
  let k = pass a b in
  let paths = a.Arena.prec_paths and codes = a.Arena.prec_codes in
  let den = if k = 0 then 0 else Karp.max_cycle_mean ~n:k paths in
  let num = if den = 0 then 0 else paths.(k * k) in
  if num <= 0 then []
  else begin
    (* edge u -> v in the loop's direction, stored transposed *)
    let m u v = paths.((v * k) + u) in
    let pi = Array.make k 0 in
    for _ = 1 to k do
      for u = 0 to k - 1 do
        for v = 0 to k - 1 do
          let w = m u v in
          if w >= 0 then pi.(v) <- max pi.(v) (pi.(u) + (den * w) - num)
        done
      done
    done;
    let tight u v =
      let w = m u v in
      w >= 0 && pi.(v) - pi.(u) = (den * w) - num
    in
    (* keep the nodes with a tight edge into the kept set: from each, a
       walk along tight edges never ends, so it closes a tight cycle *)
    let kept = Array.make k true in
    let next u =
      let rec first v =
        if v = k then -1 else if kept.(v) && tight u v then v else first (v + 1)
      in
      first 0
    in
    let changed = ref true in
    while !changed do
      changed := false;
      for u = 0 to k - 1 do
        if kept.(u) && next u < 0 then begin
          kept.(u) <- false;
          changed := true
        end
      done
    done;
    (* from the smallest kept node, each node's smallest kept tight
       successor, until a node repeats: the cycle is from there on *)
    let at = Array.make k (-1) in
    let rec walk u pos acc =
      if at.(u) >= 0 then List.filteri (fun j _ -> j >= at.(u)) (List.rev acc)
      else begin
        at.(u) <- pos;
        walk (next u) (pos + 1) (u :: acc)
      end
    in
    let rec smallest u = if kept.(u) then u else smallest (u + 1) in
    let cycle = walk (smallest 0) 0 [] in
    let fl = b.Block.flat in
    let lat = fl.Block.l_latency in
    let load_lat = b.Block.cfg.Facile_uarch.Config.load_latency in
    let amask = fl.Block.l_addr_mask in
    let roff = fl.Block.r_off and rcode = fl.Block.r_code in
    let woff = fl.Block.w_off and wcode = fl.Block.w_code in
    let nr = Semantics.n_res in
    let base = k * ((2 * k) + 1) in
    let carried = Array.make k 0 in
    for c = 0 to nr - 1 do
      if codes.(c) >= 0 then carried.(codes.(c)) <- c
    done;
    (* the last logical at or before [i] that writes [c], or -1 *)
    let rec writer i c =
      let rec writes wi =
        wi < woff.(i + 1) && (wcode.(wi) = c || writes (wi + 1))
      in
      if i < 0 || writes woff.(i) then i else writer (i - 1) c
    in
    (* the labelled path from u's entry value to v's exit value, as
       (logical, code, def?) in program order *)
    let expand u v =
      let rec back i out acc =
        let entry = paths.(base + (i * k) + u) in
        let acc = (i, out, true) :: acc in
        let rec pick ri =
          assert (ri < roff.(i + 1));
          let c = rcode.(ri) in
          let w = lat.(i) + (if in_addr amask.(i) c then load_lat else 0) in
          let p = writer (i - 1) c in
          if p >= 0 then
            let d = paths.(base + (p * k) + u) in
            if d >= 0 && d + w = entry then back p c ((i, c, false) :: acc)
            else pick (ri + 1)
          else if codes.(c) = u && w = entry then (i, c, false) :: acc
          else pick (ri + 1)
        in
        pick roff.(i)
      in
      back codes.(nr + carried.(v)) carried.(v) []
    in
    let rec edges = function
      | u :: (v :: _ as rest) -> expand u v @ edges rest
      | [ u ] -> expand u (List.hd cycle)
      | [] -> []
    in
    let chain = Array.of_list (edges cycle) in
    let len = Array.length chain in
    let logical q = match chain.(q) with i, _, _ -> i in
    (* start at a def whose value the next iteration reads, the one of
       the lowest logical (the first of those) *)
    let start = ref (-1) in
    Array.iteri
      (fun q (i, _, def) ->
        if
          def
          && logical ((q + 1) mod len) <= i
          && (!start < 0 || i < logical !start)
        then start := q)
      chain;
    List.init len (fun j ->
        let i, c, def = chain.((!start + j) mod len) in
        label i c (if def then "def" else "use"))
  end
