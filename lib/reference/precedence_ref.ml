open Facile_x86
open Facile_core

(* Node identity: (logical index, resource, consumed-or-produced). *)
type node_key = int * Semantics.resource * [ `Consumed | `Produced ]

let graph (b : Block.t) =
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
      labels := (id, Printf.sprintf "%d:%s:%s" i (Precedence.resource_name r) dir_s)
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

let throughput b =
  let g, _ = graph b in
  match Cycle_ratio.howard g with
  | Some r when r > 0.0 -> r
  | _ -> 0.0

let throughput_lawler b =
  let g, _ = graph b in
  match Cycle_ratio.lawler g with
  | Some r when r > 0.0 -> r
  | _ -> 0.0
