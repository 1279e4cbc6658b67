(* Interpretability across microarchitectures (paper §6.4): how does a
   kernel's predicted throughput and bottleneck structure evolve from
   Sandy Bridge (2011) to Rocket Lake (2021), and where would a
   designer's effort pay off (counterfactual idealization, Table 4)?

   Run with: dune exec examples/uarch_evolution.exe *)

open Facile_x86
open Facile_uarch
open Facile_core

let kernel = {|
  movzx  eax, byte ptr [rsi]
  movzx  ebx, byte ptr [rsi+1]
  lea    rcx, [rax+rbx*2]
  imul   ecx, ecx, 31
  add    edx, ecx
  shl    edx, 3
  xor    edx, ecx
  add    rsi, 2
|}

let () =
  let insts =
    match Asm.parse_block kernel with Ok l -> l | Error m -> failwith m
  in
  Printf.printf "kernel:\n%s\n\n" (Asm.print_block insts);
  Printf.printf "%-14s %7s  %-22s %s\n" "uArch" "cycles" "bottleneck"
    "speedup if idealized (Predec/Dec/Ports/Prec)";
  List.iter
    (fun (cfg : Config.t) ->
      let block = Block.of_instructions cfg insts in
      let p = Model.predict ~notion:`Unrolled block in
      let speedup c = Model.speedup_idealizing ~notion:`Unrolled block c in
      Printf.printf "%-14s %7.2f  %-22s %.2f / %.2f / %.2f / %.2f\n"
        cfg.Config.name p.Model.cycles
        (String.concat "+"
           (List.map Model.component_name (Model.bottlenecks p)))
        (speedup Model.Predec) (speedup Model.Dec) (speedup Model.Ports)
        (speedup Model.Precedence))
    Config.all;
  print_newline ();
  (* the same analysis for the loop variant *)
  let looped = Facile_bhive.Genblock.looped insts in
  Printf.printf "as a loop (TP_L), front-end path per uarch:\n";
  List.iter
    (fun (cfg : Config.t) ->
      let block = Block.of_instructions cfg looped in
      let p = Model.predict ~notion:`Loop block in
      Printf.printf "  %-14s %5.2f cycles via %s\n" cfg.Config.name
        p.Model.cycles
        (match p.Model.fe_path with
         | Model.FE_decoders -> "legacy decoders (JCC erratum)"
         | Model.FE_lsd -> "LSD"
         | Model.FE_dsb -> "DSB"
         | Model.FE_none -> "-"))
    Config.all
