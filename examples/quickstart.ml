(* Quickstart: parse a basic block, predict its throughput on Skylake,
   and inspect the per-component bounds.

   Run with: dune exec examples/quickstart.exe *)

open Facile_x86
open Facile_uarch
open Facile_core

let kernel = {|
  # one iteration of a dot-product-style loop body
  movsd  xmm0, qword ptr [rax+rbx*8]
  mulsd  xmm0, qword ptr [rcx+rbx*8]
  addsd  xmm1, xmm0
  add    rbx, 1
  cmp    rbx, rdx
  jne    -24
|}

let () =
  let insts =
    match Asm.parse_block kernel with
    | Ok insts -> insts
    | Error m -> failwith m
  in
  let cfg = Config.by_arch Config.SKL in
  let block = Block.of_instructions cfg insts in

  (* the block ends in a branch, so the loop notion (TP_L) applies *)
  let p = Model.predict block in
  Printf.printf "kernel (%d instructions, %d bytes):\n%s\n\n"
    (List.length insts) block.Block.len
    (Asm.print_block insts);
  Printf.printf "predicted inverse throughput on %s: %.2f cycles/iteration\n\n"
    cfg.Config.name p.Model.cycles;

  Printf.printf "component bounds:\n";
  List.iter
    (fun c ->
      Printf.printf "  %-11s %5.2f%s\n"
        (Model.component_name c) (Model.value p c)
        (if Model.is_bottleneck p c then "   <- bottleneck" else ""))
    Model.all_components;

  (* cross-check against the cycle-level pipeline simulator *)
  let sim = Facile_sim.Sim.measure block in
  Printf.printf "\npipeline simulator measures: %.2f cycles/iteration\n" sim;

  (* the same block analyzed under unrolling (TP_U) *)
  let body = List.filteri (fun i _ -> i < List.length insts - 1) insts in
  let unrolled = Block.of_instructions cfg body in
  Printf.printf "without the branch, unrolled (TP_U): %.2f cycles/iteration\n"
    (Model.predict ~notion:`Unrolled unrolled).Model.cycles
