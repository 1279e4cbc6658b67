(* A tour of the bottleneck classes Facile distinguishes: one small
   kernel per pipeline component, with the interpretable feedback the
   model provides for each.

   Run with: dune exec examples/bottleneck_tour.exe *)

open Facile_x86
open Facile_uarch
open Facile_core

let kernels =
  [ ( "predecode-bound (long instructions, LCP stalls)",
      `Unrolled,
      {|
        add ax, 0x1234
        mov bx, 300
        imul cx, dx, 0x7ff
        add rsi, 0x12345678
      |} );
    ( "decode-bound (multi-uop instructions)",
      `Unrolled,
      {|
        cvttsd2si rax, xmm0
        cvttsd2si rbx, xmm1
        cvttsd2si rcx, xmm2
        xchg r8, r9
      |} );
    ( "issue-bound (more uops than issue slots)",
      `Loop,
      {|
        add rax, 1
        add rbx, 1
        add rcx, 1
        add rdx, 1
        add rsi, 1
        add rdi, 1
        add r8, 1
        add r9, 1
        add r10, 1
        add r11, 1
      |} );
    ( "ports-bound (shuffle pressure on p5)",
      `Loop,
      {|
        pshufd xmm0, xmm1, 0x1b
        pshufd xmm2, xmm3, 0x1b
        pshufd xmm4, xmm5, 0x1b
        add rax, rbx
      |} );
    ( "precedence-bound (loop-carried dependency chain)",
      `Loop,
      {|
        imul rax, rbx
        add rax, rcx
      |} ) ]

let () =
  let cfg = Config.by_arch Config.SKL in
  List.iter
    (fun (title, mode, src) ->
      let insts =
        match Asm.parse_block src with Ok l -> l | Error m -> failwith m
      in
      let insts =
        match mode with
        | `Loop -> Facile_bhive.Genblock.looped insts
        | `Unrolled -> insts
      in
      let block = Block.of_instructions cfg insts in
      let p = Model.predict ~notion:(mode :> Model.notion) block in
      Printf.printf "== %s ==\n" title;
      Printf.printf "   prediction: %.2f cycles/iteration; bottleneck: %s\n"
        p.Model.cycles
        (String.concat ", "
           (List.map Model.component_name (Model.bottlenecks p)));
      if Model.is_bottleneck p Model.Ports then
        (match Ports.critical_combination block with
         | Some (pc, count) ->
           Printf.printf "   port feedback: %d uops restricted to %s\n" count
             (Port.to_string pc)
         | None -> ());
      if Model.is_bottleneck p Model.Precedence then begin
        Printf.printf "   dependency chain:";
        List.iter (Printf.printf " %s") (Precedence.critical_chain block);
        print_newline ()
      end;
      let sim =
        Facile_sim.Sim.cycles_per_iteration ~fidelity:Facile_sim.Sim.Hardware
          ~mode block
      in
      Printf.printf "   simulator measures %.2f cycles/iteration\n\n" sim)
    kernels
