(* Precedence is the maximum cycle ratio of the dependence graph.  The
   model computes it as the maximum cycle mean of a max-plus matrix
   over the loop-carried resources ([Precedence.throughput]); the
   reference runs Howard on the full graph ([Precedence_ref]).  These
   tests hold the two together bit for bit, check that every critical
   chain the model reads off its pass is a witness in the reference
   graph, pin two blocks on which Howard used to cycle until its guard
   gave up, and check three metamorphic relations: repeating a block
   scales the bound exactly, as it does Issue and Ports; appending an
   instruction never lowers Issue or Ports; renaming registers moves
   none of the three. *)

open Facile_x86
open Facile_uarch
open Facile_db
open Facile_core
open Facile_reference
module Baselines = Facile_baselines.Baselines
module Genblock = Facile_bhive.Genblock
module Prng = Facile_bhive.Prng

let bits = Int64.bits_of_float

let exact =
  Alcotest.testable
    (fun fmt f -> Format.fprintf fmt "%.17g" f)
    (fun a b -> Int64.equal (bits a) (bits b))

let code_of_hex h =
  match Hex.decode h with
  | Ok code -> code
  | Error e -> Alcotest.failf "bad hex: %s" (Err.to_string e)

let repeat times code = String.concat "" (List.init times (fun _ -> code))

(* Two Genblock blocks on which Howard's policy iteration used to cycle
   until its n*m+64 guard tripped, so Precedence came from Lawler's
   bisection (12.000000000267391 for A on HSW, 14.000000000172804 for B
   on SKL) and took milliseconds per block.  A: 24 SSE instructions. *)
let block_a =
  "f3450f6f7510f20f5de2450f58e3440f5bcf660f5dcc66440f59f866410feffcf3440f\
   1124f8410f5fdcf2410f2adcf2440f584e0866410f72d20466450f70dcb7f3450f58ed\
   410f116c58f8440f59ec66440f6f8000040000f2440f59da66410fdeec66410f74ebf3\
   440f5ef4660ffefaf20f58df66410f3840ef"

(* B: 42 mixed integer and SSE instructions. *)
let block_b =
  "f30f2ae9f7e166420f1f04b24c015940f2410f7cec4187cd4d09da490fca440fa4e81d\
   f24d0f2ae54987db4487ca4d316b40f2440f11a600040000f2480f2af248d3f909d048\
   87ff41d3fe49d3e84987c44d87cb4409db4929d50f116b40f2450f106d104587ea4921\
   d9f2440f7cd6f2450f7cd84d31ec420f1f84db0004000049d3e44501e6f2490f2ac341\
   d3f8f2410f5ee741d3e44d299d00040000f3440f2ad3f3410f2ac5f2450f7ce8"

(* [witness_error b chain] is [None] when [chain] is a critical cycle
   of [b]'s reference graph: each label, the last included, has an edge
   to the next; the cycle crosses a back edge (count 1); and its weight
   over its back edges is [Precedence.throughput b] bit for bit.  The
   chain is empty exactly when that bound is 0. *)
let witness_error b chain =
  let bound = Precedence.throughput b in
  match chain with
  | [] ->
    if bits bound = bits 0.0 then None
    else Some (Printf.sprintf "no chain for a bound of %h" bound)
  | first :: rest ->
    let g, label = Precedence_ref.graph b in
    (* label pair -> (weight, count) *)
    let edges = Hashtbl.create 64 in
    List.iter
      (fun (e : Digraph.edge) ->
        Hashtbl.replace edges
          (label e.Digraph.src, label e.Digraph.dst)
          (e.Digraph.weight, e.Digraph.count))
      (Digraph.edges g);
    let rec walk weight back = function
      | (src, dst) :: pairs ->
        (match Hashtbl.find_opt edges (src, dst) with
         | Some (w, t) -> walk (weight +. w) (back + t) pairs
         | None -> Error (Printf.sprintf "no edge %s -> %s" src dst))
      | [] -> Ok (weight, back)
    in
    (match walk 0.0 0 (List.combine chain (rest @ [ first ])) with
     | Error m -> Some m
     | Ok (_, 0) -> Some "the chain crosses no back edge"
     | Ok (weight, back) ->
       let ratio = weight /. float_of_int back in
       if bits ratio = bits bound then None
       else
         Some
           (Printf.sprintf "weight %g over %d back edges is %h, not %h"
              weight back ratio bound))

let check_exact name arch ?(times = 1) hex expected =
  let cfg = Config.by_arch arch in
  let b = Block.of_bytes cfg (repeat times (code_of_hex hex)) in
  let what = Printf.sprintf "%s x%d on %s" name times cfg.Config.abbrev in
  Alcotest.check exact (what ^ ": max-plus") expected (Precedence.throughput b);
  Alcotest.check exact (what ^ ": Howard") expected
    (Precedence_ref.throughput b);
  match witness_error b (Precedence.critical_chain b) with
  | None -> ()
  | Some m -> Alcotest.failf "%s: critical chain: %s" what m

let converges_tests =
  [ Alcotest.test_case "Howard converges on block A" `Quick (fun () ->
        List.iter
          (fun arch ->
            check_exact "A" arch block_a 12.0;
            check_exact "A" arch ~times:2 block_a 24.0)
          [ Config.HSW; Config.BDW ]);
    Alcotest.test_case "Howard converges on block B" `Quick (fun () ->
        List.iter
          (fun (arch, expected) -> check_exact "B" arch block_b expected)
          [ (Config.SNB, 22.0); (Config.IVB, 22.0); (Config.HSW, 20.0);
            (Config.BDW, 20.0); (Config.SKL, 14.0); (Config.CLX, 14.0);
            (Config.ICL, 14.0); (Config.TGL, 14.0); (Config.RKL, 14.0) ]) ]

let cfg_name (cfg : Config.t) =
  if Flat.is_canonical cfg then cfg.Config.abbrev
  else cfg.Config.abbrev ^ " (defused)"

let gen_body =
  QCheck.(triple small_nat (int_range 1 24) (int_range 0 7))

let body_of (seed, len, profile_idx) =
  let profiles = Genblock.all_profiles in
  let profile = List.nth profiles (profile_idx mod List.length profiles) in
  let rng = Facile_bhive.Prng.create (succ seed) in
  Genblock.body rng profile ~allow_fma:true ~len:(max 1 (min 24 len))

let show insts = String.concat "\n" (List.map Inst.to_string insts)

(* [on_every_block check params] holds when [check cfg front insts b]
   does on every block of [params]'s body and its loop, every profile,
   FMA on, on the nine µarchs and their de-fused configs (which take
   the [Db.describe] fallback), through both front ends. *)
let on_every_block check params =
  let body = body_of params in
  let on cfg insts =
    match Block.of_instructions cfg insts with
    | exception Db.Unsupported _ -> true (* FMA or BMI before Haswell *)
    | bi ->
      check cfg "of_instructions" insts bi
      && check cfg "of_bytes" insts (Block.of_bytes cfg bi.Block.bytes)
  in
  List.for_all
    (fun cfg -> on cfg body && on cfg (Genblock.looped body))
    (Config.all @ List.map Baselines.defused_cfg Config.all)

let qcheck_maxplus_equals_howard =
  QCheck.Test.make ~name:"max-plus = Howard on the full graph" ~count:200
    gen_body
    (on_every_block (fun cfg front insts b ->
         let fast = Precedence.throughput b in
         let reference = Precedence_ref.throughput b in
         bits fast = bits reference
         || QCheck.Test.fail_reportf
              "%s via %s: max-plus %h <> Howard %h on\n%s" (cfg_name cfg)
              front fast reference (show insts)))

(* The chain the model reads off its max-plus pass is a witness for
   its bound in the reference graph. *)
let qcheck_chain_is_witness =
  QCheck.Test.make ~name:"every critical chain is a witness" ~count:200
    gen_body
    (on_every_block (fun cfg front insts b ->
         let chain = Precedence.critical_chain b in
         match witness_error b chain with
         | None -> true
         | Some m ->
           QCheck.Test.fail_reportf "%s via %s: %s, chain [%s] on\n%s"
             (cfg_name cfg) front m (String.concat "; " chain) (show insts)))

(* Repeating a block k times raises its matrix to the k-th max-plus
   power, whose maximum cycle mean is k times the block's.  Issue and
   Ports are ratios of uop counts, which the repetition multiplies by
   k.  Scaling by 2 or 4 is exact in floating point, so the comparison
   is bitwise.  A block whose last instruction would macro-fuse with its
   first changes shape when repeated and is skipped. *)
let fuses_across (cfg : Config.t) insts =
  match (insts, List.rev insts) with
  | first :: _, last :: _ ->
    cfg.Config.macro_fusion && (Db.describe cfg last).Db.macro_fusible
    && Db.macro_fuses last first
  | _ -> false

let scaled_components =
  [ ("Precedence", Precedence.throughput);
    ("Issue", Issue.throughput);
    ("Ports", Ports.throughput) ]

let qcheck_repetition_scales =
  QCheck.Test.make
    ~name:"repeating a block scales Precedence, Issue and Ports exactly"
    ~count:200 gen_body (fun params ->
      let body = body_of params in
      let check cfg insts =
        match Block.of_instructions cfg insts with
        | exception Db.Unsupported _ -> true
        | _ when fuses_across cfg insts -> true
        | b ->
          List.for_all
            (fun times ->
              let bk = Block.of_bytes cfg (repeat times b.Block.bytes) in
              List.for_all
                (fun (name, throughput) ->
                  let v = throughput b and vk = throughput bk in
                  bits vk = bits (float_of_int times *. v)
                  || QCheck.Test.fail_reportf
                       "%s %s: x%d gives %h, not %d x %h on\n%s" name
                       cfg.Config.abbrev times vk times v (show insts))
                scaled_components)
            [ 2; 4 ]
      in
      List.for_all
        (fun cfg -> check cfg body && check cfg (Genblock.looped body))
        Config.all)

(* Appending an instruction adds µops, or, when a Jcc macro-fuses with
   the instruction before it, moves that instruction's compute µop onto
   the branch port, a subset of its ports: Issue and Ports never drop.
   The instruction (a Jcc one time in three) is appended to every
   prefix of a body, so each instruction of the body is the last one
   once, and to the body's loop. *)
let appended pick =
  let rng = Prng.create (succ pick) in
  if Prng.int rng 3 = 0 then
    Inst.make (Inst.Jcc (Prng.choose rng Inst.all_conds)) [ Operand.imm 0 ]
  else
    Genblock.random_inst rng (Prng.choose rng Genblock.all_profiles)
      ~allow_fma:true

let prefixes insts =
  List.init (List.length insts) (fun k ->
      List.filteri (fun i _ -> i <= k) insts)

let qcheck_append_never_lowers =
  QCheck.Test.make ~name:"appending an instruction never lowers Issue or Ports"
    ~count:200 (QCheck.pair gen_body QCheck.small_nat) (fun (params, pick) ->
      let body = body_of params in
      let extra = appended pick in
      let check cfg insts =
        match
          (Block.of_instructions cfg insts,
           Block.of_instructions cfg (insts @ [ extra ]))
        with
        | exception Db.Unsupported _ -> true
        | b, b' ->
          List.for_all
            (fun (name, throughput) ->
              let v = throughput b and v' = throughput b' in
              v' >= v
              || QCheck.Test.fail_reportf
                   "%s %s: %h after appending %s, %h before, on\n%s" name
                   cfg.Config.abbrev v' (Inst.to_string extra) v (show insts))
            [ ("Issue", Issue.throughput); ("Ports", Ports.throughput) ]
      in
      List.for_all
        (fun cfg ->
          List.for_all (check cfg) (Genblock.looped body :: prefixes body))
        Config.all)

(* A bijective renaming of registers relabels the dependence graph and
   leaves every µop and port set alone, so Issue, Ports and Precedence
   do not move by a bit.  RAX, RCX, RDX and RSP stay put: MUL/DIV,
   CDQ, shifts by CL and PUSH/POP use them implicitly. *)
let renamable =
  Register.[ RBX; RBP; RSI; RDI; R8; R9; R10; R11; R12; R13; R14; R15 ]

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let renaming pick =
  let rng = Prng.create (succ pick) in
  let gprs = List.combine renamable (shuffle rng renamable) in
  let vecs = Array.of_list (shuffle rng (List.init 16 Fun.id)) in
  let gpr r = Option.value (List.assoc_opt r gprs) ~default:r in
  let operand = function
    | Operand.Reg (Register.Gpr (w, r)) -> Operand.Reg (Register.Gpr (w, gpr r))
    | Operand.Reg (Register.Xmm n) -> Operand.Reg (Register.Xmm vecs.(n))
    | Operand.Reg (Register.Ymm n) -> Operand.Reg (Register.Ymm vecs.(n))
    | Operand.Mem m ->
      Operand.Mem
        { m with
          Operand.base = Option.map gpr m.Operand.base;
          index = Option.map (fun (r, sc) -> (gpr r, sc)) m.Operand.index }
    | Operand.Imm _ as o -> o
  in
  fun (i : Inst.t) -> Inst.make i.Inst.mnem (List.map operand i.Inst.ops)

let qcheck_renaming_invariant =
  QCheck.Test.make
    ~name:"renaming registers leaves Issue, Ports and Precedence unchanged"
    ~count:200 (QCheck.pair gen_body QCheck.small_nat) (fun (params, pick) ->
      let body = body_of params in
      let renamed = List.map (renaming pick) body in
      let check cfg (insts, insts') =
        match
          (Block.of_instructions cfg insts, Block.of_instructions cfg insts')
        with
        | exception Db.Unsupported _ -> true
        | b, b' ->
          List.for_all
            (fun (name, throughput) ->
              let v = throughput b and v' = throughput b' in
              bits v = bits v'
              || QCheck.Test.fail_reportf
                   "%s %s: %h renamed, %h on\n%s\nrenamed\n%s" name
                   cfg.Config.abbrev v' v (show insts) (show insts'))
            scaled_components
      in
      List.for_all
        (fun cfg ->
          check cfg (body, renamed)
          && check cfg (Genblock.looped body, Genblock.looped renamed))
        Config.all)

let suite =
  [ "core.precedence",
    converges_tests
    @ List.map QCheck_alcotest.to_alcotest
        [ qcheck_maxplus_equals_howard; qcheck_chain_is_witness;
          qcheck_repetition_scales;
          qcheck_append_never_lowers; qcheck_renaming_invariant ] ]
