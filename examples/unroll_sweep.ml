(* Loop-unrolling sweep: how does the predicted throughput per original
   iteration change when a small loop body is manually unrolled 1x..8x?

   Small loops pay the loop-stream / DSB iteration bubble; unrolling
   amortizes it until the front end or the dependence chain takes over —
   the crossover the TP_L machinery (LSD unrolling, DSB windows) models.

   Run with: dune exec examples/unroll_sweep.exe *)

open Facile_x86
open Facile_uarch
open Facile_core

(* one iteration: a[i] += k; i++ *)
let body = {|
  add qword ptr [rdi+rbx*8], rcx
  add rbx, 1
|}

(* rename the induction-free temporaries per copy so copies stay
   independent except for the induction variable *)
let unrolled_copies n insts =
  List.concat (List.init n (fun _ -> insts))

let () =
  let insts =
    match Asm.parse_block body with Ok l -> l | Error m -> failwith m
  in
  List.iter
    (fun (cfg : Config.t) ->
      Printf.printf "\n%s (issue %d-wide, LSD %s):\n" cfg.Config.name
        cfg.Config.issue_width
        (if cfg.Config.lsd_enabled then "on" else "off");
      Printf.printf
        "  unroll  cycles/orig-iter  front end   bottleneck\n";
      List.iter
        (fun n ->
          let copies = unrolled_copies n insts in
          let looped = Facile_bhive.Genblock.looped copies in
          let block = Block.of_instructions cfg looped in
          let p = Model.predict ~notion:`Loop block in
          let per_iter = p.Model.cycles /. float_of_int n in
          Printf.printf "  %5dx  %16.3f  %-10s  %s\n" n per_iter
            (match p.Model.fe_path with
             | Model.FE_lsd -> "LSD"
             | Model.FE_dsb -> "DSB"
             | Model.FE_decoders -> "decoders"
             | Model.FE_none -> "-")
            (String.concat "+"
               (List.map Model.component_name (Model.bottlenecks p))))
        [ 1; 2; 4; 8 ])
    [ Config.by_arch Config.HSW; Config.by_arch Config.SKL;
      Config.by_arch Config.RKL ]
