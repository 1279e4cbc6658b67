open Facile_x86
open Facile_uarch
open Facile_db
open Facile_core

type fidelity = Hardware | Model

let unreached = max_int

(* ------------------------------------------------------------------ *)
(* Dynamic (per-instance) instruction and µop state                    *)

type duop = {
  ukind : Db.uop_kind;
  uports : Port.t;
  mutable bound_port : int;          (* Hardware fidelity: set at rename *)
  mutable dep_uops : duop list;      (* intra-instruction ordering *)
  res_deps : dyn list;               (* data-producing instructions *)
  mutable done_cycle : int;
  mutable is_result : bool;
  mutable result_latency : int;
}

and dyn = {
  iter : int;
  idx : int;
  uops : duop array;
  issued_slots : int;
  mutable result_time : int;
}

type producer = Ready | P of dyn

(* Address registers feeding loads / store-address µops. *)
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
          | Some (g, _) -> [ Semantics.Reg (Register.Gpr (Register.W64, g)) ]
          | None -> []
        in
        base @ index
      | None -> [])
    l.Block.insts

(* ------------------------------------------------------------------ *)
(* Front-end µop streams: per logical-instruction instance, in program  *)
(* order, the front-end cycle at which its µops are fully in the IDQ.   *)

type fe_stream = {
  mutable next_iter : int;
  mutable next_idx : int;
  gen : int -> int -> int; (* iter -> idx -> ready cycle *)
}

let make_stream gen = { next_iter = 0; next_idx = 0; gen }

let stream_next n (s : fe_stream) =
  let iter = s.next_iter and idx = s.next_idx in
  let ready = s.gen iter idx in
  if idx + 1 = n then begin
    s.next_iter <- iter + 1;
    s.next_idx <- 0
  end
  else s.next_idx <- idx + 1;
  (ready, iter, idx)

(* --- legacy decode path (predecoder + decoders) ------------------- *)

(* Per-period predecode finish times, one entry per raw instruction per
   period copy, using the same block/cycle accounting as the Predec
   component. *)
let predecode_schedule (b : Block.t) ~mode =
  let l = b.Block.len in
  let width = b.Block.cfg.Config.predecode_width in
  let rec gcd a c = if c = 0 then a else gcd c (a mod c) in
  let u = match mode with `Unrolled -> 16 / gcd l 16 | `Loop -> 1 in
  let n_blocks =
    match mode with `Unrolled -> u * l / 16 | `Loop -> (l + 15) / 16
  in
  let entries = Block.entries b in
  let n_entries = List.length entries in
  let last_count = Array.make n_blocks 0 in
  let opcode_count = Array.make n_blocks 0 in
  let lcp_count = Array.make n_blocks 0 in
  let entry_block = Array.make (max 1 (u * n_entries)) 0 in
  let entry_ord = Array.make (max 1 (u * n_entries)) 0 in
  for copy = 0 to u - 1 do
    List.iteri
      (fun k (e : Block.entry) ->
        let lay = e.Block.layout in
        let last = (copy * l) + lay.Encode.off + lay.Encode.len - 1 in
        let opc = (copy * l) + lay.Encode.nominal_opcode_off in
        let last_b = last / 16 in
        let opc_b = opc / 16 in
        entry_block.((copy * n_entries) + k) <- last_b;
        entry_ord.((copy * n_entries) + k) <- last_count.(last_b);
        last_count.(last_b) <- last_count.(last_b) + 1;
        if opc_b <> last_b then
          opcode_count.(opc_b) <- opcode_count.(opc_b) + 1;
        if lay.Encode.lcp then lcp_count.(opc_b) <- lcp_count.(opc_b) + 1)
      entries
  done;
  let cyc_nlcp bi =
    (last_count.(bi) + opcode_count.(bi) + width - 1) / width
  in
  let block_start = Array.make (n_blocks + 1) 0 in
  for bi = 0 to n_blocks - 1 do
    let prev = (bi + n_blocks - 1) mod n_blocks in
    let lcp_cycles = max 0 ((3 * lcp_count.(bi)) - (cyc_nlcp prev - 1)) in
    block_start.(bi + 1) <- block_start.(bi) + cyc_nlcp bi + lcp_cycles
  done;
  let period_cycles = max 1 block_start.(n_blocks) in
  let time copy k =
    let i = (copy * n_entries) + k in
    block_start.(entry_block.(i)) + (entry_ord.(i) / width) + 1
  in
  (u, period_cycles, time)

let complex_cycles (l : Block.logical) =
  if l.Block.fused_uops > 4 then (l.Block.fused_uops + 3) / 4 else 1

let decode_stream (b : Block.t) ~mode ~branch_bubble =
  let cfg = b.Block.cfg in
  let u, period, predec_time_entry = predecode_schedule b ~mode in
  (* raw-entry index of each logical's last instruction *)
  let logical_last_entry =
    let rec walk entry_idx = function
      | (a : Block.entry) :: _ :: rest when a.Block.fuses_with_next ->
        (entry_idx + 1) :: walk (entry_idx + 2) rest
      | _ :: rest -> entry_idx :: walk (entry_idx + 1) rest
      | [] -> []
    in
    Array.of_list (walk 0 (Block.entries b))
  in
  let logicals = Array.of_list (Block.logicals b) in
  let predec_time iter idx =
    let q = iter / u and copy = iter mod u in
    (q * period) + predec_time_entry copy logical_last_entry.(idx)
  in
  let ndec = cfg.Config.n_decoders in
  let dec_cycle = ref 0 in
  let n_avail = ref 0 in
  let gen iter idx =
    let l = logicals.(idx) in
    let pr = predec_time iter idx in
    if pr > !dec_cycle then begin
      dec_cycle := pr;
      n_avail := 0
    end;
    if l.Block.complex_decode then begin
      n_avail := l.Block.available_simple_dec;
      dec_cycle := !dec_cycle + complex_cycles l
    end
    else if
      !n_avail = 0
      || (l.Block.macro_fused
          && (not cfg.Config.macro_fusible_on_last_decoder)
          && !n_avail = 1)
    then begin
      n_avail := ndec - 1;
      incr dec_cycle
    end
    else decr n_avail;
    if l.Block.is_branch then begin
      n_avail := 0;
      if branch_bubble then incr dec_cycle
    end;
    !dec_cycle
  in
  make_stream gen

(* --- DSB path ------------------------------------------------------ *)

let dsb_stream (b : Block.t) =
  let cfg = b.Block.cfg in
  let w = cfg.Config.dsb_width in
  let logicals = Array.of_list (Block.logicals b) in
  (* 32-byte window of each logical, by the offset of its first inst *)
  let offsets =
    let rec walk off = function
      | (a : Block.entry) :: b' :: rest when a.Block.fuses_with_next ->
        off
        :: walk
             (off + a.Block.layout.Encode.len + b'.Block.layout.Encode.len)
             rest
      | a :: rest -> off :: walk (off + a.Block.layout.Encode.len) rest
      | [] -> []
    in
    Array.of_list (walk 0 (Block.entries b))
  in
  let cycle = ref 0 in
  let budget = ref 0 in
  let cur_window = ref (-1, -1) in
  let gen iter idx =
    let l = logicals.(idx) in
    let window = (iter, offsets.(idx) / 32) in
    if window <> !cur_window || !budget = 0 then begin
      incr cycle;
      budget := w;
      cur_window := window
    end;
    let need = ref l.Block.fused_uops in
    while !need > 0 do
      if !budget = 0 then begin
        incr cycle;
        budget := w
      end;
      let take = min !budget !need in
      need := !need - take;
      budget := !budget - take
    done;
    !cycle
  in
  make_stream gen

(* --- LSD path ------------------------------------------------------ *)

let lsd_stream (b : Block.t) =
  let cfg = b.Block.cfg in
  let iw = cfg.Config.issue_width in
  let n_uops = Block.fused_uops b in
  let unroll = Config.lsd_unroll cfg n_uops in
  let logicals = Array.of_list (Block.logicals b) in
  let cycle = ref 0 in
  let budget = ref 0 in
  let in_virtual = ref 0 in
  let gen _iter idx =
    let l = logicals.(idx) in
    let need = ref l.Block.fused_uops in
    while !need > 0 do
      if !budget = 0 then begin
        incr cycle;
        budget := iw
      end;
      let take = min !budget !need in
      need := !need - take;
      budget := !budget - take;
      in_virtual := !in_virtual + take;
      if !in_virtual >= n_uops * unroll then begin
        (* the last µop of a (virtually unrolled) iteration cannot share
           a cycle with the first µop of the next *)
        in_virtual := 0;
        budget := 0
      end
    done;
    !cycle
  in
  make_stream gen

(* ------------------------------------------------------------------ *)
(* Rename: build the dynamic instruction with resolved dependencies.   *)

let memq_dedup l =
  List.fold_left (fun acc d -> if List.memq d acc then acc else d :: acc) [] l

let rename_dyn cfg rename_table ~iter ~idx (l : Block.logical) =
  let lookup r =
    match Hashtbl.find_opt rename_table r with
    | Some (P d) -> Some d
    | Some Ready | None -> None
  in
  let addr = addr_resources l in
  let res_for kind =
    match kind with
    | Db.Load | Db.Store_addr -> addr
    | Db.Compute | Db.Div_pseudo | Db.Store_data -> l.Block.reads
  in
  let uops =
    Array.of_list
      (List.map
         (fun (u : Db.uop) ->
           { ukind = u.Db.kind;
             uports = u.Db.ports;
             bound_port = -1;
             dep_uops = [];
             res_deps = memq_dedup (List.filter_map lookup (res_for u.Db.kind));
             done_cycle = unreached;
             is_result = false;
             result_latency = 0 })
         l.Block.dispatched)
  in
  (* intra-instruction ordering: compute µops wait for the load; the
     divider's extra-occupancy µops are serialized (the unit is not
     pipelined); the store-data µop waits for the producing compute *)
  let find_uop p =
    let r = ref None in
    Array.iter (fun u -> if !r = None && p u then r := Some u) uops;
    !r
  in
  let load = find_uop (fun u -> u.ukind = Db.Load) in
  let computes =
    Array.to_list uops |> List.filter (fun u -> u.ukind = Db.Compute)
  in
  (match load with
   | Some ld -> List.iter (fun cu -> cu.dep_uops <- [ ld ]) computes
   | None -> ());
  let pseudo =
    Array.to_list uops |> List.filter (fun u -> u.ukind = Db.Div_pseudo)
  in
  let rec chain prev = function
    | p :: rest ->
      p.dep_uops <- prev :: p.dep_uops;
      chain p rest
    | [] -> ()
  in
  (match computes, pseudo with
   | first :: _, p :: rest -> chain first (p :: rest)
   | [], p :: rest -> chain p rest
   | _, [] -> ());
  Array.iter
    (fun u ->
      if u.ukind = Db.Store_data then
        match List.rev computes, load with
        | last :: _, _ -> u.dep_uops <- [ last ]
        | [], Some ld -> u.dep_uops <- [ ld ]
        | [], None -> ())
    uops;
  (* the result-producing µop: consumers can start [latency] cycles
     after the first compute µop starts (or [load_latency] after a pure
     load starts) *)
  (match List.find_opt (fun u -> u.ukind = Db.Compute) computes, load with
   | Some c, _ ->
     c.is_result <- true;
     c.result_latency <- l.Block.latency
   | None, Some ld ->
     ld.is_result <- true;
     ld.result_latency <- cfg.Config.load_latency
   | None, None -> ());
  let has_result = Array.exists (fun u -> u.is_result) uops in
  let d =
    { iter; idx; uops;
      issued_slots = max 1 l.Block.issued_uops;
      result_time = (if has_result then unreached else 0) }
  in
  (* writes update the rename table *)
  if l.Block.eliminated then begin
    let alias =
      if l.Block.zero_idiom then Ready
      else
        match l.Block.reads with
        | (Semantics.Reg _ as src) :: _ ->
          (match Hashtbl.find_opt rename_table src with
           | Some p -> p
           | None -> Ready)
        | _ -> Ready
    in
    List.iter (fun w -> Hashtbl.replace rename_table w alias) l.Block.writes
  end
  else
    List.iter (fun w -> Hashtbl.replace rename_table w (P d)) l.Block.writes;
  d

(* ------------------------------------------------------------------ *)

exception Did_not_converge

let cycles_per_iteration ?(fidelity = Hardware) ?(warmup = 64) ?(measure = 48)
    ~mode (b : Block.t) =
  let logicals = Array.of_list (Block.logicals b) in
  let n = Array.length logicals in
  if n = 0 then 0.0
  else begin
    let cfg = b.Block.cfg in
    let stream =
      match mode with
      | `Unrolled ->
        decode_stream b ~mode:`Unrolled ~branch_bubble:(fidelity = Hardware)
      | `Loop ->
        if cfg.Config.jcc_erratum && Block.jcc_erratum_affected b then
          decode_stream b ~mode:`Loop ~branch_bubble:(fidelity = Hardware)
        else if Lsd.applicable b then lsd_stream b
        else dsb_stream b
    in
    let uses_idq_capacity =
      match mode with `Loop when Lsd.applicable b -> false | _ -> true
    in
    let target = warmup + measure in
    let rename_table : (Semantics.resource, producer) Hashtbl.t =
      Hashtbl.create 64
    in
    let idq : (int * int * Block.logical * int ref) Queue.t =
      Queue.create ()
    in
    let idq_uops = ref 0 in
    let fe_pending = ref (stream_next n stream) in
    let fe_delay = ref 0 in
    let rob : (dyn * Block.logical) Queue.t = Queue.create () in
    let rob_uops = ref 0 in
    let rs_count = ref 0 in
    let waiting : (duop * dyn) list ref = ref [] in
    let newly_renamed : (duop * dyn) list ref = ref [] in
    let port_pressure = Array.make 16 0 in
    let retire_time = Array.make (target + 2) (-1) in
    let retired_iters = ref 0 in
    let cycle = ref 0 in
    let max_cycles = 1_000_000 in
    let port_list = Port.to_list cfg.Config.ports in
    let ready_uop t (u : duop) =
      List.for_all (fun p -> p.done_cycle <= t) u.dep_uops
      && List.for_all (fun (d : dyn) -> d.result_time <= t) u.res_deps
    in
    let start_uop t (d : dyn) (u : duop) =
      u.done_cycle <-
        t + (if u.ukind = Db.Load then cfg.Config.load_latency else 1);
      if u.is_result then d.result_time <- t + u.result_latency;
      if fidelity = Hardware && u.bound_port >= 0 then
        port_pressure.(u.bound_port) <-
          max 0 (port_pressure.(u.bound_port) - 1);
      decr rs_count
    in
    while !retired_iters < target && !cycle < max_cycles do
      incr cycle;
      let t = !cycle in
      (* ---- dispatch ---- *)
      let free = Array.make 16 true in
      let remaining = ref [] in
      let dispatch_one ((u, d) as item) =
        if not (ready_uop t u) then remaining := item :: !remaining
        else
          match fidelity with
          | Hardware ->
            let p = u.bound_port in
            if p >= 0 && free.(p) then begin
              free.(p) <- false;
              start_uop t d u
            end
            else remaining := item :: !remaining
          | Model ->
            (match
               List.find_opt
                 (fun p -> free.(p) && Port.mem p u.uports)
                 port_list
             with
             | Some p ->
               free.(p) <- false;
               start_uop t d u
             | None -> remaining := item :: !remaining)
      in
      List.iter dispatch_one !waiting;
      waiting := List.rev !remaining;
      (* ---- retire (in order) ---- *)
      let retire_budget = ref cfg.Config.issue_width in
      let continue_retire = ref true in
      while !continue_retire && not (Queue.is_empty rob) do
        let d, _l = Queue.peek rob in
        (* complete: all µops executed and, if there is a result µop,
           the result has been produced *)
        let has_result = Array.exists (fun u -> u.is_result) d.uops in
        let complete =
          Array.for_all (fun u -> u.done_cycle <= t) d.uops
          && ((not has_result) || d.result_time <= t)
        in
        if complete && !retire_budget > 0 then begin
          retire_budget := !retire_budget - min d.issued_slots !retire_budget;
          ignore (Queue.pop rob);
          rob_uops := !rob_uops - d.issued_slots;
          if d.idx = n - 1 && d.iter < Array.length retire_time then begin
            retire_time.(d.iter) <- t;
            retired_iters := d.iter + 1
          end
        end
        else continue_retire := false
      done;
      (* ---- issue / rename ---- *)
      let budget = ref cfg.Config.issue_width in
      let continue_issue = ref true in
      while !continue_issue && !budget > 0 && not (Queue.is_empty idq) do
        let iter, idx, l, slots_left = Queue.peek idq in
        let fresh = !slots_left = max 1 l.Block.issued_uops in
        let n_disp = List.length l.Block.dispatched in
        if
          fresh
          && (!rob_uops + max 1 l.Block.issued_uops > cfg.Config.rob_size
              || !rs_count + n_disp > cfg.Config.rs_size)
        then continue_issue := false
        else begin
          let take = min !budget !slots_left in
          slots_left := !slots_left - take;
          budget := !budget - take;
          if !slots_left = 0 then begin
            ignore (Queue.pop idq);
            idq_uops := !idq_uops - l.Block.fused_uops;
            let d = rename_dyn cfg rename_table ~iter ~idx l in
            rob_uops := !rob_uops + d.issued_slots;
            rs_count := !rs_count + Array.length d.uops;
            if fidelity = Hardware then
              Array.iter
                (fun u ->
                  let best = ref (-1) in
                  List.iter
                    (fun p ->
                      if
                        Port.mem p u.uports
                        && (!best < 0
                            || port_pressure.(p) < port_pressure.(!best))
                      then best := p)
                    port_list;
                  u.bound_port <- !best;
                  if !best >= 0 then
                    port_pressure.(!best) <- port_pressure.(!best) + 1)
                d.uops;
            Array.iter (fun u -> newly_renamed := (u, d) :: !newly_renamed)
              d.uops;
            Queue.push (d, l) rob
          end
        end
      done;
      if !newly_renamed <> [] then begin
        waiting := !waiting @ List.rev !newly_renamed;
        newly_renamed := []
      end;
      (* ---- front end ---- *)
      let continue_fe = ref true in
      while !continue_fe do
        let ready, iter, idx = !fe_pending in
        if iter > target then continue_fe := false
        else if ready + !fe_delay > t then continue_fe := false
        else begin
          let l = logicals.(idx) in
          if
            uses_idq_capacity
            && !idq_uops > 0
            && !idq_uops + l.Block.fused_uops > cfg.Config.idq_size
          then begin
            (* backpressure: shift the remaining front-end schedule *)
            fe_delay := t + 1 - ready;
            continue_fe := false
          end
          else begin
            Queue.push (iter, idx, l, ref (max 1 l.Block.issued_uops)) idq;
            idq_uops := !idq_uops + l.Block.fused_uops;
            fe_pending := stream_next n stream
          end
        end
      done
    done;
    if !retired_iters < target then raise Did_not_converge;
    let t1 = retire_time.(warmup - 1) in
    let t2 = retire_time.(target - 1) in
    if t1 < 0 || t2 < 0 then raise Did_not_converge;
    float_of_int (t2 - t1) /. float_of_int measure
  end

let measure b =
  let mode = if Block.ends_in_branch b then `Loop else `Unrolled in
  cycles_per_iteration ~fidelity:Hardware ~mode b

let uica_like b =
  let mode = if Block.ends_in_branch b then `Loop else `Unrolled in
  cycles_per_iteration ~fidelity:Model ~mode b
