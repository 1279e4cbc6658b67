open Facile_x86
open Facile_graph

let resource_name = function
  | Semantics.Reg r -> Register.name r
  | Semantics.Flags -> "flags"

(* Node identity: (logical index, resource, consumed-or-produced). *)
type node_key = int * Semantics.resource * [ `Consumed | `Produced ]

let build (b : Block.t) =
  let logs = Array.of_list (Block.logicals b) in
  let n = Array.length logs in
  let load_lat = b.Block.cfg.Facile_uarch.Config.load_latency in
  let tbl : (node_key, int) Hashtbl.t = Hashtbl.create 64 in
  let labels = ref [] in
  let counter = ref 0 in
  let node key =
    match Hashtbl.find_opt tbl key with
    | Some id -> id
    | None ->
      let id = !counter in
      incr counter;
      Hashtbl.add tbl key id;
      let i, r, dir = key in
      let dir_s = match dir with `Consumed -> "use" | `Produced -> "def" in
      labels := (id, Printf.sprintf "%d:%s:%s" i (resource_name r) dir_s)
                :: !labels;
      id
  in
  (* First pass: create nodes and record edges to add (node creation must
     precede graph sizing). *)
  let edges = ref [] in
  let add_edge src dst weight count = edges := (src, dst, weight, count) :: !edges in
  (* intra-instruction edges: every consumed value -> every produced
     value, weighted by the instruction latency. Only address-register
     inputs additionally pay the load latency: a register operand of a
     load-op instruction feeds the ALU µop directly, while the address
     registers feed the load µop first. *)
  let addr_resources (l : Block.logical) =
    List.concat_map
      (fun inst ->
        match Inst.mem_operand inst with
        | Some m ->
          let base =
            match m.Operand.base with
            | Some g -> [ Semantics.Reg (Register.Gpr (Register.W64, g)) ]
            | None -> []
          in
          let index =
            match m.Operand.index with
            | Some (g, _) ->
              [ Semantics.Reg (Register.Gpr (Register.W64, g)) ]
            | None -> []
          in
          base @ index
        | None -> [])
      l.Block.insts
  in
  Array.iteri
    (fun i (l : Block.logical) ->
      let addr = if l.Block.loads then addr_resources l else [] in
      List.iter
        (fun r ->
          let lat =
            l.Block.latency + (if List.mem r addr then load_lat else 0)
          in
          let src = node (i, r, `Consumed) in
          List.iter
            (fun w ->
              let dst = node (i, w, `Produced) in
              add_edge src dst (float_of_int lat) 0)
            l.Block.writes)
        l.Block.reads)
    logs;
  (* dependency edges: producer -> consumer, 0 weight; iteration count 1
     when the producing instruction comes later in program order (the
     value crosses the loop back-edge) *)
  let last_writer_before j r =
    let rec scan i =
      if i < 0 then None
      else if List.mem r logs.(i).Block.writes then Some i
      else scan (i - 1)
    in
    match scan (j - 1) with
    | Some i -> Some (i, 0)
    | None ->
      (* wrap around: last writer anywhere in the block *)
      (match scan (n - 1) with
       | Some i -> Some (i, 1)
       | None -> None)
  in
  Array.iteri
    (fun j (l : Block.logical) ->
      List.iter
        (fun r ->
          match last_writer_before j r with
          | Some (i, count) ->
            let src = node (i, r, `Produced) in
            let dst = node (j, r, `Consumed) in
            add_edge src dst 0.0 count
          | None -> ())
        l.Block.reads)
    logs;
  let g = Digraph.create ~n:!counter in
  List.iter (fun (src, dst, weight, count) ->
      Digraph.add_edge g ~src ~dst ~weight ~count)
    !edges;
  let label_arr = Array.make (max !counter 1) "?" in
  List.iter (fun (id, s) -> label_arr.(id) <- s) !labels;
  (g, fun id -> if id >= 0 && id < Array.length label_arr then label_arr.(id) else "?")

let graph = build

let span = Facile_obs.Obs.histogram "model.precedence"

(* ------------------------------------------------------------------ *)
(* Fast path: the same bound from a max-plus matrix over the
   loop-carried resources, in one forward pass over [Block.flat].

   Every edge of [build]'s graph stays inside one logical or goes
   forward in program order, except those of count 1, which run from
   the block's last writer of a resource to the reads of it that come
   before any write.  So every cycle crosses the loop back edge, and
   Precedence is the maximum cycle mean of the k x k matrix whose
   entry (u, v) is the longest path from u's value at iteration entry
   to v's value at iteration exit, over the k loop-carried resources:
   read before any write, and written somewhere.  Karp's algorithm
   gives it as one correctly rounded division of two integers whose
   ratio is the maximum, as Howard's does on the full graph, so the two
   return the same float. *)

(* Is code [c] a load-address register of the logical with GPR mask
   [mask]?  Address resources are always full-width GPRs, whose codes
   run from RAX's upwards in [gpr_index] order. *)
let rax_code =
  Semantics.res_code (Semantics.Reg (Register.Gpr (Register.W64, Register.RAX)))

let in_addr mask c =
  c >= rax_code && c < rax_code + 16
  && mask land (1 lsl (c - rax_code)) <> 0

let throughput_in (a : Arena.t) b =
  Facile_obs.Obs.timed span @@ fun () ->
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
  if k = 0 then 0.0
  else begin
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
          (* [build]'s intra-instruction edge weight *)
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
    done;
    match Cycle_ratio.karp ~n:k paths with
    | Some r when r > 0.0 -> r
    | _ -> 0.0
  end

let throughput b = Arena.with_ (fun a -> throughput_in a b)

(* Reference path: labeled hashtable build + Howard on the full graph. *)
let throughput_ref b =
  Facile_obs.Obs.timed span @@ fun () ->
  let g, _ = build b in
  match Cycle_ratio.howard g with
  | Some r when r > 0.0 -> r
  | _ -> 0.0

let throughput_lawler b =
  let g, _ = build b in
  match Cycle_ratio.lawler g with
  | Some r when r > 0.0 -> r
  | _ -> 0.0

let critical_chain b =
  let g, label = build b in
  match Cycle_ratio.howard g with
  | Some r when r > 0.0 ->
    (match Cycle_ratio.critical_cycle g r with
     | Some edges -> List.map (fun e -> label e.Digraph.src) edges
     | None -> [])
  | _ -> []
