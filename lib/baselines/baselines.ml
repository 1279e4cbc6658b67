open Facile_x86
open Facile_uarch
open Facile_db
open Facile_core

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)

(* A configuration with the features llvm-mca/OSACA do not model turned
   off: macro fusion and move elimination. *)
let defused_cfg (cfg : Config.t) =
  { cfg with
    Config.macro_fusion = false;
    mov_elim_gpr = false;
    mov_elim_vec = false }

let reanalyze cfg' (b : Block.t) =
  Block.of_instructions cfg' (Array.to_list b.Block.insts)

let dispatched_uops (b : Block.t) =
  List.fold_left
    (fun acc (l : Block.logical) ->
      if l.Block.eliminated then acc else acc + List.length l.Block.dispatched)
    0 (Block.logicals b)

(* ------------------------------------------------------------------ *)
(* llvm-mca-like                                                       *)

(* Deterministic per-mnemonic latency perturbation standing in for the
   miscalibration of LLVM scheduling models. *)
let latency_delta (l : Block.logical) =
  match l.Block.insts with
  | i :: _ -> (Hashtbl.hash (Inst.mnemonic_name i.Inst.mnem) mod 3) - 1
  | [] -> 0

let perturb_latencies (b : Block.t) =
  Block.map_latency
    (fun (l : Block.logical) -> max 0 (l.Block.latency + latency_delta l))
    b

let llvm_mca_like (b : Block.t) =
  let b' = perturb_latencies (reanalyze (defused_cfg b.Block.cfg) b) in
  let issue_unfused =
    float_of_int (dispatched_uops b')
    /. float_of_int b'.Block.cfg.Config.issue_width
  in
  List.fold_left Float.max 0.0
    [ issue_unfused; Ports.throughput b'; Precedence.throughput b' ]

(* ------------------------------------------------------------------ *)
(* OSACA-like                                                          *)

let osaca_like (b : Block.t) =
  let b' = reanalyze (defused_cfg b.Block.cfg) b in
  (* uniform fractional spread of each µop over its admissible ports *)
  let load = Array.make 16 0.0 in
  List.iter
    (fun (l : Block.logical) ->
      if not l.Block.eliminated then
        List.iter
          (fun (u : Db.uop) ->
            let ports = Port.to_list u.Db.ports in
            let share = 1.0 /. float_of_int (max 1 (List.length ports)) in
            List.iter (fun p -> load.(p) <- load.(p) +. share) ports)
          l.Block.dispatched)
    (Block.logicals b');
  let port_bound = Array.fold_left Float.max 0.0 load in
  Float.max port_bound (Precedence.throughput b')

(* ------------------------------------------------------------------ *)
(* IACA-like                                                           *)

let iaca_like (b : Block.t) =
  let issue =
    float_of_int (Block.fused_uops b)
    /. float_of_int b.Block.cfg.Config.issue_width
  in
  (* IACA analyzed simple single-instruction recurrences but not full
     dependence cycles *)
  let self_chain =
    List.fold_left
      (fun acc (l : Block.logical) ->
        let rmw =
          List.exists (fun w -> List.mem w l.Block.reads) l.Block.writes
        in
        if rmw && not l.Block.eliminated then max acc l.Block.latency else acc)
      0 (Block.logicals b)
  in
  List.fold_left Float.max 0.0
    [ issue; Ports.throughput b; float_of_int self_chain ]

(* ------------------------------------------------------------------ *)
(* Learned baseline                                                    *)

type learned = float array

let featurize (b : Block.t) =
  let logicals = Block.logicals b in
  let count f = float_of_int (List.length (List.filter f logicals)) in
  let sum f = float_of_int (List.fold_left (fun a l -> a + f l) 0 logicals) in
  let maxi f = float_of_int (List.fold_left (fun a l -> max a (f l)) 0 logicals) in
  let div_occ =
    List.fold_left
      (fun a (l : Block.logical) ->
        a
        + List.length
            (List.filter (fun (u : Db.uop) -> u.Db.kind = Db.Div_pseudo)
               l.Block.dispatched))
      0 logicals
  in
  let lcp =
    List.length
      (List.filter (fun (e : Block.entry) -> e.Block.layout.Encode.lcp)
         (Block.entries b))
  in
  (* fractional pressure per port: a sequence model could learn this
     from the opcode mix *)
  let pressure = Array.make 10 0.0 in
  List.iter
    (fun (l : Block.logical) ->
      if not l.Block.eliminated then
        List.iter
          (fun (u : Db.uop) ->
            let ports = Port.to_list u.Db.ports in
            let share = 1.0 /. float_of_int (max 1 (List.length ports)) in
            List.iter
              (fun p -> if p < 10 then pressure.(p) <- pressure.(p) +. share)
              ports)
          l.Block.dispatched)
    logicals;
  (* proxy for loop-carried chains: instructions that read what they
     write contribute their latency serially *)
  let self_dep, self_dep_max =
    List.fold_left
      (fun (acc, mx) (l : Block.logical) ->
        let rmw =
          List.exists (fun w -> List.mem w l.Block.reads) l.Block.writes
        in
        if rmw then
          let lat =
            l.Block.latency
            + (if l.Block.loads then
                 b.Block.cfg.Facile_uarch.Config.load_latency
               else 0)
          in
          (acc + lat, max mx lat)
        else (acc, mx))
      (0, 0) logicals
  in
  let max_pressure = ref 0.0 in
  Array.append
    [| 1.0;
       float_of_int (List.length logicals);
       float_of_int (Block.fused_uops b);
       float_of_int (Block.issued_uops b);
       float_of_int (dispatched_uops b);
       count (fun l -> l.Block.loads);
       count (fun l ->
           List.exists (fun (u : Db.uop) -> u.Db.kind = Db.Store_data)
             l.Block.dispatched);
       count (fun l -> l.Block.is_branch);
       float_of_int b.Block.len;
       float_of_int b.Block.len /. 16.0;
       count (fun l -> l.Block.complex_decode);
       sum (fun l -> l.Block.latency);
       maxi (fun l -> l.Block.latency);
       float_of_int self_dep;
       float_of_int div_occ;
       float_of_int lcp;
       count (fun l -> l.Block.eliminated);
       (* max-style aggregates: the nonlinearities a sequence model
          learns implicitly *)
       (Array.iter (fun p -> max_pressure := Float.max !max_pressure p) pressure;
        !max_pressure);
       float_of_int self_dep_max;
       log (1.0 +. float_of_int self_dep_max);
       log (1.0 +. !max_pressure);
       log (1.0 +. float_of_int (Block.fused_uops b)) |]
    pressure

(* The model is fit in log space: throughput prediction is judged by
   relative error, and cycle counts span two orders of magnitude. *)
let train samples =
  let xs = List.map (fun (b, _) -> featurize b) samples in
  let ys = List.map (fun (_, y) -> log (Float.max y 0.1)) samples in
  Linalg.ridge_fit ~lambda:1.0 xs ys

let predict_learned w b =
  Float.min 10000.0 (Float.max 0.2 (exp (Linalg.dot w (featurize b))))
