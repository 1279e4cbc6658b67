(* Superoptimizer-style search: the use case the paper motivates for a
   fast throughput model (§1, §7). We search over dependence-preserving
   reorderings of a kernel, using Facile as the cost model, and verify
   the winner against the pipeline simulator.

   Run with: dune exec examples/superopt.exe *)

open Facile_x86
open Facile_uarch
open Facile_core

(* Float-to-int conversion burst followed by counter updates: the
   two-µop conversions cluster on the complex decoder, so the schedule
   determines the decode throughput. *)
let kernel = {|
  cvttsd2si rax, xmm0
  cvttsd2si rbx, xmm1
  cvttsd2si rcx, xmm2
  add    r8, 1
  add    r9, 1
  add    r10, 1
  add    r11, 1
  add    r12, 1
  add    r13, 1
|}

(* Dependence DAG over the block: i -> j when j must stay after i
   (read-after-write, write-after-read, or write-after-write on any
   architectural resource). *)
let dependence_dag insts =
  let arr = Array.of_list insts in
  let n = Array.length arr in
  let reads = Array.map Semantics.reads arr in
  let writes = Array.map Semantics.writes arr in
  let conflict i j =
    let inter a b = List.exists (fun x -> List.mem x b) a in
    inter writes.(i) reads.(j)
    || inter reads.(i) writes.(j)
    || inter writes.(i) writes.(j)
  in
  let preds = Array.make n [] in
  for j = 0 to n - 1 do
    for i = 0 to j - 1 do
      if conflict i j then preds.(j) <- i :: preds.(j)
    done
  done;
  preds

(* A random topological order of the DAG (Kahn's algorithm with random
   tie-breaking). *)
let random_topo_order rng preds n =
  let remaining_preds = Array.map List.length preds in
  let succs = Array.make n [] in
  Array.iteri (fun j ps -> List.iter (fun i -> succs.(i) <- j :: succs.(i)) ps)
    preds;
  let ready = ref [] in
  Array.iteri (fun i p -> if p = 0 then ready := i :: !ready) remaining_preds;
  let order = ref [] in
  while !ready <> [] do
    let k = Facile_bhive.Prng.int rng (List.length !ready) in
    let pick = List.nth !ready k in
    ready := List.filteri (fun i _ -> i <> k) !ready;
    order := pick :: !order;
    List.iter
      (fun j ->
        remaining_preds.(j) <- remaining_preds.(j) - 1;
        if remaining_preds.(j) = 0 then ready := j :: !ready)
      succs.(pick)
  done;
  List.rev !order

let () =
  let insts =
    match Asm.parse_block kernel with Ok l -> l | Error m -> failwith m
  in
  let cfg = Config.by_arch Config.SKL in
  let arr = Array.of_list insts in
  let preds = dependence_dag insts in
  let rng = Facile_bhive.Prng.create 2023 in
  let cost insts =
    (Model.predict ~notion:`Unrolled (Block.of_instructions cfg insts))
      .Model.cycles
  in
  let baseline = cost insts in
  let candidates = 2000 in
  let best = ref insts and best_cost = ref baseline in
  let t0 = Sys.time () in
  for _ = 1 to candidates do
    let order = random_topo_order rng preds (Array.length arr) in
    let candidate = List.map (fun i -> arr.(i)) order in
    let c = cost candidate in
    if c < !best_cost then begin
      best := candidate;
      best_cost := c
    end
  done;
  let dt = Sys.time () -. t0 in
  Printf.printf "searched %d dependence-preserving schedules in %.2fs \
                 (%.0f candidates/s)\n\n"
    candidates dt (float_of_int candidates /. dt);
  Printf.printf "original schedule:  %.2f cycles/iter (Facile)\n" baseline;
  Printf.printf "best schedule:      %.2f cycles/iter (Facile)\n\n" !best_cost;
  Printf.printf "best schedule found:\n%s\n\n" (Asm.print_block !best);
  let sim insts =
    Facile_sim.Sim.cycles_per_iteration ~fidelity:Facile_sim.Sim.Hardware
      ~mode:`Unrolled
      (Block.of_instructions cfg insts)
  in
  Printf.printf "simulator check: original %.2f -> best %.2f cycles/iter\n"
    (sim insts) (sim !best);
  let p = Model.predict ~notion:`Unrolled (Block.of_instructions cfg !best) in
  Printf.printf "remaining bottleneck: %s\n"
    (String.concat ", " (List.map Model.component_name (Model.bottlenecks p)))
