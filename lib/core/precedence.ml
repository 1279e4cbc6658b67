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
(* Fast path: the same graph, built without labels, without the
   polymorphic node-key hashtable and without edge lists, from the
   read/write code segments and latencies of [Block.flat].

   Node identity is the integer [((i * Semantics.n_res) + code) * 2 + dir]
   resolved through a flat arena table; [Semantics.res_code] is
   injective, so the node table is exactly the reference hashtable.
   The code segments list each logical's reads and writes in the order
   and with the de-duplication of its [reads]/[writes] lists, so nodes
   are discovered and edges pushed in the reference order; the push
   buffer is reversed before the Howard run because the reference build
   adds its accumulated edge list in reverse push order —
   [Cycle_ratio.howard_flat] therefore sees bit-identical input and
   returns bit-identical floats. *)

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
  if n = 0 then 0.0
  else begin
    let load_lat = b.Block.cfg.Facile_uarch.Config.load_latency in
    let amask = fl.Block.l_addr_mask in
    let roff = fl.Block.r_off and rcode = fl.Block.r_code in
    let woff = fl.Block.w_off and wcode = fl.Block.w_code in
    let wlo = fl.Block.w_lo and whi = fl.Block.w_hi in
    (* Node ids through the generation-stamped table: a slot is valid
       only when its stamp equals this call's generation, so the table
       never needs clearing. *)
    let gen = a.Arena.prec_generation + 1 in
    a.Arena.prec_generation <- gen;
    let ntab = n * Semantics.n_res * 2 in
    let nodes = Arena.ints a.Arena.prec_nodes ntab in
    a.Arena.prec_nodes <- nodes;
    let stamps = Arena.ints a.Arena.prec_gen ntab in
    a.Arena.prec_gen <- stamps;
    let counter = ref 0 in
    let node i rc dir =
      let k = (((i * Semantics.n_res) + rc) * 2) + dir in
      if stamps.(k) = gen then nodes.(k)
      else begin
        let id = !counter in
        incr counter;
        stamps.(k) <- gen;
        nodes.(k) <- id;
        id
      end
    in
    let m = ref 0 in
    let grow_edges () =
      let c = max 64 (2 * Array.length a.Arena.prec_src) in
      let ns = Array.make c 0 in
      Array.blit a.Arena.prec_src 0 ns 0 !m;
      a.Arena.prec_src <- ns;
      let nd = Array.make c 0 in
      Array.blit a.Arena.prec_dst 0 nd 0 !m;
      a.Arena.prec_dst <- nd;
      let nw = Array.make c 0.0 in
      Array.blit a.Arena.prec_w 0 nw 0 !m;
      a.Arena.prec_w <- nw;
      let nc = Array.make c 0 in
      Array.blit a.Arena.prec_cnt 0 nc 0 !m;
      a.Arena.prec_cnt <- nc
    in
    (* [push] takes the weight as an int so no boxed float crosses the
       closure boundary (all edge weights are integral latencies) *)
    let push src dst wi c =
      if !m >= Array.length a.Arena.prec_src then grow_edges ();
      let k = !m in
      a.Arena.prec_src.(k) <- src;
      a.Arena.prec_dst.(k) <- dst;
      a.Arena.prec_w.(k) <- float_of_int wi;
      a.Arena.prec_cnt.(k) <- c;
      incr m
    in
    (* intra-instruction edges (see [build] for the load-latency rule) *)
    for i = 0 to n - 1 do
      for ri = roff.(i) to roff.(i + 1) - 1 do
        let rc = rcode.(ri) in
        let src = node i rc 0 in
        let w = lat.(i) + (if in_addr amask.(i) rc then load_lat else 0) in
        for wi = woff.(i) to woff.(i + 1) - 1 do
          push src (node i wcode.(wi) 1) w 0
        done
      done
    done;
    (* dependency edges: producer -> consumer. The last-writer scan is
       a bitmask test against each candidate's write set — codes are
       injective, so this is exactly the reference [List.mem]. *)
    let writes_res i blo bhi =
      (wlo.(i) land blo) lor (whi.(i) land bhi) <> 0
    in
    for j = 0 to n - 1 do
      for ri = roff.(j) to roff.(j + 1) - 1 do
        let rc = rcode.(ri) in
        let blo = if rc < 63 then 1 lsl rc else 0
        and bhi = if rc < 63 then 0 else 1 lsl (rc - 63) in
        let i = ref (j - 1) in
        while !i >= 0 && not (writes_res !i blo bhi) do
          decr i
        done;
        let i, c =
          if !i >= 0 then (!i, 0)
          else begin
            let i = ref (n - 1) in
            while !i >= 0 && not (writes_res !i blo bhi) do
              decr i
            done;
            (!i, 1)
          end
        in
        if i >= 0 then begin
          let src = node i rc 1 in
          let dst = node j rc 0 in
          push src dst 0 c
        end
      done
    done;
    (* the reference build adds its accumulated list in reverse push
       order; mirror that so the Howard run sees identical input *)
    let mm = !m in
    let src = a.Arena.prec_src
    and dst = a.Arena.prec_dst
    and w = a.Arena.prec_w
    and cnt = a.Arena.prec_cnt in
    for k = 0 to (mm / 2) - 1 do
      let k' = mm - 1 - k in
      let t = src.(k) in
      src.(k) <- src.(k');
      src.(k') <- t;
      let t = dst.(k) in
      dst.(k) <- dst.(k');
      dst.(k') <- t;
      let t = w.(k) in
      w.(k) <- w.(k');
      w.(k') <- t;
      let t = cnt.(k) in
      cnt.(k) <- cnt.(k');
      cnt.(k') <- t
    done;
    match
      Cycle_ratio.howard_flat ~scratch:a.Arena.howard ~n:!counter ~m:mm ~src
        ~dst ~weight:w ~count:cnt
    with
    | Some r when r > 0.0 -> r
    | _ -> 0.0
  end

let throughput b = Arena.with_ (fun a -> throughput_in a b)

(* Reference path: labeled hashtable build + list-based Howard. *)
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
