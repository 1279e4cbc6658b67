open Facile_x86
open Facile_uarch

exception Unsupported of string

type uop_kind =
  | Load
  | Compute
  | Store_addr
  | Store_data
  | Div_pseudo

type uop = { kind : uop_kind; ports : Port.t }

type t = {
  fused_uops : int;
  issued_uops : int;
  dispatched : uop list;
  latency : int;
  complex_decode : bool;
  available_simple_dec : int;
  eliminated : bool;
  zero_idiom : bool;
  macro_fusible : bool;
}

let is_zero_idiom (i : Inst.t) =
  match i.Inst.mnem, i.Inst.ops with
  | (Inst.XOR | Inst.SUB), [ Operand.Reg a; Operand.Reg b ] ->
    Register.equal a b
    && (match a with
        | Register.Gpr ((Register.W32 | Register.W64), _) -> true
        | _ -> false)
  | (Inst.PXOR | Inst.XORPS | Inst.XORPD | Inst.PSUBD),
    [ Operand.Reg a; Operand.Reg b ] ->
    Register.equal a b
  | (Inst.VPXOR | Inst.VXORPS), [ Operand.Reg _; Operand.Reg a; Operand.Reg b ] ->
    Register.equal a b
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Era helpers and per-family latencies                                *)

let pre_skl cfg =
  match cfg.Config.arch with
  | Config.SNB | Config.IVB | Config.HSW | Config.BDW -> true
  | _ -> false

let snb_ivb cfg =
  match cfg.Config.arch with Config.SNB | Config.IVB -> true | _ -> false

let icl_plus cfg =
  match cfg.Config.arch with
  | Config.ICL | Config.TGL | Config.RKL -> true
  | _ -> false

let fp_add_lat cfg = if pre_skl cfg then 3 else 4

let fp_mul_lat cfg =
  match cfg.Config.arch with
  | Config.SNB | Config.IVB | Config.HSW -> 5
  | Config.BDW -> 3
  | _ -> 4

let fma_lat cfg =
  match cfg.Config.arch with Config.HSW | Config.BDW -> 5 | _ -> 4

(* (latency, divider occupancy in cycles) *)
let div_scalar_single cfg =
  if snb_ivb cfg then (14, 7) else if pre_skl cfg then (13, 7) else (11, 3)

let div_scalar_double cfg =
  if snb_ivb cfg then (22, 14) else if pre_skl cfg then (20, 8) else (14, 4)

let sqrt_single cfg = if snb_ivb cfg then (14, 7) else (12, 3)
let sqrt_double cfg = if snb_ivb cfg then (21, 14) else (18, 6)

(* ------------------------------------------------------------------ *)

type profile = { comp : uop list; lat : int; fusible : bool }

let cu ports = { kind = Compute; ports }
let du ports = { kind = Div_pseudo; ports }
let rep n x = List.init n (fun _ -> x)

let prof ?(fusible = false) comp lat = { comp; lat; fusible }

(* Divider-style operation: one compute µop plus (occ - 1) cycles of
   extra divider occupancy. *)
let divider_prof pm (lat, occ) =
  prof (cu pm.Config.divider :: rep (max 0 (occ - 1)) (du pm.Config.divider)) lat

let unsupported i = raise (Unsupported (Inst.to_string i))

let int_width (i : Inst.t) =
  let rec go = function
    | [] -> 8
    | Operand.Reg (Register.Gpr (w, _)) :: _ -> Register.width_bytes w
    | Operand.Mem m :: _ -> m.Operand.width
    | _ :: rest -> go rest
  in
  go i.Inst.ops

let has_mem_src (i : Inst.t) =
  match i.Inst.ops with
  | _ :: rest -> List.exists (function Operand.Mem _ -> true | _ -> false) rest
  | [] -> false

let ymm_operand (i : Inst.t) =
  List.exists
    (function Operand.Reg (Register.Ymm _) -> true
            | Operand.Mem m -> m.Operand.width = 32
            | _ -> false)
    i.Inst.ops

(* Compute-µop profile assuming register operands; memory µops are
   added by [describe]. [comp = []] marks pure data movement where the
   load or store µops do all the work. *)
let compute_profile cfg (i : Inst.t) : profile =
  let pm = cfg.Config.pm in
  let alu1 ~fusible = prof ~fusible [ cu pm.Config.alu ] 1 in
  let mem_src = has_mem_src i in
  let mem_dst =
    match i.Inst.ops with Operand.Mem _ :: _ -> true | _ -> false
  in
  match i.Inst.mnem with
  | Inst.ADD | Inst.SUB | Inst.AND ->
    alu1 ~fusible:(not (snb_ivb cfg))
  | Inst.OR | Inst.XOR -> alu1 ~fusible:false
  | Inst.CMP | Inst.TEST -> alu1 ~fusible:true
  | Inst.ADC | Inst.SBB ->
    if pre_skl cfg && cfg.Config.arch <> Config.BDW then
      prof [ cu pm.Config.alu; cu pm.Config.alu ] 2
    else prof [ cu pm.Config.alu ] 1
  | Inst.INC | Inst.DEC -> alu1 ~fusible:(not (snb_ivb cfg))
  | Inst.NEG | Inst.NOT -> alu1 ~fusible:false
  | Inst.MOV ->
    if mem_src || mem_dst then prof [] 0 else alu1 ~fusible:false
  | Inst.MOVZX | Inst.MOVSX | Inst.MOVSXD ->
    if mem_src then prof [] 0 else alu1 ~fusible:false
  | Inst.LEA ->
    let m =
      match i.Inst.ops with
      | [ _; Operand.Mem m ] -> m
      | _ -> unsupported i
    in
    let three_component =
      m.Operand.base <> None && m.Operand.index <> None && m.Operand.disp <> 0
    in
    if three_component then prof [ cu pm.Config.slow_lea ] 3
    else prof [ cu pm.Config.lea ] 1
  | Inst.IMUL -> prof [ cu pm.Config.slow_int ] 3
  | Inst.MUL | Inst.IDIV | Inst.DIV ->
    let w = int_width i in
    (match i.Inst.mnem with
     | Inst.MUL ->
       if w = 8 then prof [ cu pm.Config.slow_int; cu pm.Config.alu ] 3
       else
         prof [ cu pm.Config.slow_int; cu pm.Config.alu; cu pm.Config.alu ] 4
     | _ ->
       (* integer division: microcoded; much faster from ICL on *)
       let lat, divider_occ, helpers =
         if icl_plus cfg then (18, 4, 4)
         else if w = 8 then (40, 12, 8)
         else (26, 6, 4)
       in
       prof
         (cu pm.Config.divider
          :: rep (divider_occ - 1) (du pm.Config.divider)
          @ rep helpers (cu pm.Config.alu))
         lat)
  | Inst.SHL | Inst.SHR | Inst.SAR | Inst.ROL | Inst.ROR ->
    (match i.Inst.ops with
     | [ _; Operand.Imm _ ] -> prof [ cu pm.Config.shift ] 1
     | _ -> prof [ cu pm.Config.shift; cu pm.Config.shift ] 2)
  | Inst.XCHG ->
    prof [ cu pm.Config.alu; cu pm.Config.alu; cu pm.Config.alu ] 1
  | Inst.BSWAP ->
    if int_width i = 8 then prof [ cu pm.Config.alu; cu pm.Config.alu ] 2
    else prof [ cu pm.Config.alu ] 1
  | Inst.PUSH | Inst.POP -> prof [] 0
  | Inst.BSF | Inst.BSR | Inst.POPCNT | Inst.LZCNT | Inst.TZCNT ->
    prof [ cu pm.Config.slow_int ] 3
  | Inst.CDQ | Inst.CQO | Inst.CWDE | Inst.CDQE ->
    prof [ cu pm.Config.shift ] 1
  | Inst.SHLD | Inst.SHRD -> prof [ cu pm.Config.slow_int ] 3
  | Inst.BT -> prof [ cu pm.Config.shift ] 1
  | Inst.BTS | Inst.BTR | Inst.BTC -> prof [ cu pm.Config.shift ] 1
  | Inst.MOVBE -> prof [ cu pm.Config.alu ] 1
  | Inst.CLC | Inst.STC | Inst.CMC -> prof [ cu pm.Config.alu ] 1
  | Inst.ANDN -> prof [ cu pm.Config.alu ] 1
  | Inst.BZHI -> prof [ cu pm.Config.alu ] 1
  | Inst.SHLX | Inst.SHRX | Inst.SARX -> prof [ cu pm.Config.shift ] 1
  | Inst.NOP | Inst.NOPL -> prof [] 0
  | Inst.JMP | Inst.Jcc _ -> prof [ cu pm.Config.branch ] 1
  | Inst.SETcc _ -> prof [ cu pm.Config.shift ] 1
  | Inst.CMOVcc _ ->
    if pre_skl cfg then prof [ cu pm.Config.alu; cu pm.Config.alu ] 2
    else prof [ cu pm.Config.branch ] 1
  (* ----- SSE/AVX data movement ----- *)
  | Inst.MOVAPS | Inst.MOVUPS | Inst.MOVAPD | Inst.MOVDQA | Inst.MOVDQU
  | Inst.VMOVAPS | Inst.VMOVUPS | Inst.VMOVDQA | Inst.VMOVDQU ->
    if mem_src || mem_dst then prof [] 0 else prof [ cu pm.Config.vec_alu ] 1
  | Inst.MOVSS | Inst.MOVSD ->
    if mem_src || mem_dst then prof [] 0 else prof [ cu pm.Config.shuffle ] 1
  | Inst.MOVD ->
    if mem_src || mem_dst then prof [] 0
    else (match i.Inst.ops with
          | [ Operand.Reg (Register.Xmm _); _ ] ->
            prof [ cu pm.Config.shuffle ] 2
          | _ -> prof [ cu (Port.singleton 0) ] 2)
  | Inst.MOVQ ->
    if mem_src || mem_dst then prof [] 0
    else (match i.Inst.ops with
          | [ Operand.Reg (Register.Xmm _); Operand.Reg (Register.Xmm _) ] ->
            prof [ cu pm.Config.vec_alu ] 1
          | [ Operand.Reg (Register.Xmm _); _ ] ->
            prof [ cu pm.Config.shuffle ] 2
          | _ -> prof [ cu (Port.singleton 0) ] 2)
  (* ----- FP arithmetic ----- *)
  | Inst.ADDPS | Inst.ADDPD | Inst.ADDSS | Inst.ADDSD
  | Inst.SUBPS | Inst.SUBPD | Inst.SUBSS | Inst.SUBSD
  | Inst.MINPS | Inst.MAXPS | Inst.MINPD | Inst.MAXPD
  | Inst.MINSS | Inst.MAXSS | Inst.MINSD | Inst.MAXSD
  | Inst.VADDPS | Inst.VADDPD | Inst.VSUBPS | Inst.VMINPS | Inst.VMAXPS ->
    prof [ cu pm.Config.fp_add ] (fp_add_lat cfg)
  | Inst.HADDPS ->
    prof [ cu pm.Config.shuffle; cu pm.Config.shuffle; cu pm.Config.fp_add ] 6
  | Inst.ROUNDSD -> prof [ cu pm.Config.fp_add ] 8
  | Inst.CVTDQ2PS | Inst.CVTPS2DQ | Inst.CVTTPS2DQ ->
    prof [ cu pm.Config.fp_add ] (fp_add_lat cfg)
  | Inst.MULPS | Inst.MULPD | Inst.MULSS | Inst.MULSD
  | Inst.VMULPS | Inst.VMULPD ->
    prof [ cu pm.Config.fp_mul ] (fp_mul_lat cfg)
  | Inst.DIVSS -> divider_prof pm (div_scalar_single cfg)
  | Inst.DIVPS | Inst.VDIVPS ->
    let lat, occ = div_scalar_single cfg in
    let occ = if ymm_operand i then occ * 2 else occ in
    divider_prof pm (lat, occ)
  | Inst.DIVSD -> divider_prof pm (div_scalar_double cfg)
  | Inst.DIVPD -> divider_prof pm (div_scalar_double cfg)
  | Inst.SQRTSS -> divider_prof pm (sqrt_single cfg)
  | Inst.SQRTPS | Inst.VSQRTPS ->
    let lat, occ = sqrt_single cfg in
    let occ = if ymm_operand i then occ * 2 else occ in
    divider_prof pm (lat, occ)
  | Inst.SQRTSD | Inst.SQRTPD -> divider_prof pm (sqrt_double cfg)
  | Inst.ANDPS | Inst.ANDPD | Inst.ORPS | Inst.XORPS | Inst.XORPD
  | Inst.VXORPS | Inst.VANDPS ->
    prof [ cu pm.Config.vec_alu ] 1
  | Inst.PCMPEQB | Inst.PCMPEQD | Inst.PCMPGTD
  | Inst.PMAXSD | Inst.PMINSD | Inst.PMAXUB | Inst.PMINUB ->
    prof [ cu pm.Config.vec_alu ] 1
  | Inst.PSHUFB | Inst.PALIGNR | Inst.PACKSSDW
  | Inst.PSLLDQ | Inst.PSRLDQ
  | Inst.SHUFPS | Inst.UNPCKHPS | Inst.UNPCKLPD ->
    prof [ cu pm.Config.shuffle ] 1
  | Inst.UCOMISS | Inst.UCOMISD -> prof [ cu pm.Config.fp_add ] 2
  (* ----- SIMD integer ----- *)
  | Inst.PXOR | Inst.POR | Inst.PAND | Inst.VPXOR | Inst.VPAND
  | Inst.VPOR ->
    prof [ cu pm.Config.vec_alu ] 1
  | Inst.PADDB | Inst.PADDD | Inst.PADDQ | Inst.PSUBD | Inst.VPADDD ->
    prof [ cu pm.Config.vec_alu ] 1
  | Inst.PMULLD | Inst.VPMULLD ->
    if snb_ivb cfg then prof [ cu pm.Config.vec_imul ] 5
    else prof [ cu pm.Config.vec_imul; cu pm.Config.vec_imul ] 10
  | Inst.PMULUDQ -> prof [ cu pm.Config.vec_imul ] 5
  | Inst.PUNPCKLDQ | Inst.PSHUFD -> prof [ cu pm.Config.shuffle ] 1
  | Inst.PSLLD | Inst.PSRLD -> prof [ cu pm.Config.vec_shift ] 1
  (* ----- conversions ----- *)
  | Inst.CVTSI2SD | Inst.CVTSI2SS ->
    prof [ cu pm.Config.shuffle; cu pm.Config.fp_add ] 6
  | Inst.CVTTSD2SI ->
    prof [ cu pm.Config.fp_add; cu (Port.singleton 0) ] 6
  | Inst.CVTSS2SD | Inst.CVTSD2SS ->
    prof [ cu pm.Config.fp_add; cu pm.Config.shuffle ] 5
  (* ----- FMA ----- *)
  | Inst.VFMADD231PS | Inst.VFMADD231PD | Inst.VFMADD231SS
  | Inst.VFMADD231SD | Inst.VFMADD132PS | Inst.VFMADD213PS ->
    prof [ cu pm.Config.fp_fma ] (fma_lat cfg)

let check_supported cfg (i : Inst.t) =
  (* FMA and BMI arrived with Haswell, together with AVX2 *)
  let fma_or_bmi =
    match i.Inst.mnem with
    | Inst.VFMADD231PS | Inst.VFMADD231PD | Inst.VFMADD231SS
    | Inst.VFMADD231SD | Inst.VFMADD132PS | Inst.VFMADD213PS
    | Inst.ANDN | Inst.BZHI | Inst.SHLX | Inst.SHRX | Inst.SARX
    | Inst.MOVBE -> true
    | _ -> false
  in
  let avx2_int =
    (match i.Inst.mnem with
     | Inst.VPXOR | Inst.VPADDD | Inst.VPMULLD | Inst.VPAND | Inst.VPOR ->
       true
     | _ -> false)
    && ymm_operand i
  in
  if (fma_or_bmi || avx2_int) && not cfg.Config.has_avx2_fma then
    unsupported i

(* Unlamination of micro-fused µops at rename (see DESIGN.md):
   pre-SKL any indexed addressing unlaminates; from SKL on only
   instructions with an index register and at least two other register
   sources (approximating the operand-count rule). *)
let unlaminates cfg (i : Inst.t) =
  match Inst.mem_operand i with
  | None -> false
  | Some m ->
    (match m.Operand.index with
     | None -> false
     | Some _ ->
       if not cfg.Config.unlamination_simple_ok then true
       else
         let reg_sources =
           List.length
             (List.filter
                (function Operand.Reg _ -> true | _ -> false)
                i.Inst.ops)
         in
         reg_sources >= 2)

let eliminated_desc cfg ~zero_idiom =
  { fused_uops = 1;
    issued_uops = 1;
    dispatched = [];
    latency = 0;
    complex_decode = false;
    available_simple_dec = cfg.Config.n_decoders - 1;
    eliminated = true;
    zero_idiom;
    macro_fusible = false }

let is_reg_move_elimination cfg (i : Inst.t) =
  match i.Inst.mnem, i.Inst.ops with
  | Inst.MOV,
    [ Operand.Reg (Register.Gpr ((Register.W32 | Register.W64), _));
      Operand.Reg (Register.Gpr ((Register.W32 | Register.W64), _)) ] ->
    cfg.Config.mov_elim_gpr
  | (Inst.MOVAPS | Inst.MOVUPS | Inst.MOVAPD | Inst.MOVDQA | Inst.MOVDQU
    | Inst.VMOVAPS | Inst.VMOVUPS | Inst.VMOVDQA | Inst.VMOVDQU),
    [ Operand.Reg (Register.Xmm _ | Register.Ymm _);
      Operand.Reg (Register.Xmm _ | Register.Ymm _) ] ->
    cfg.Config.mov_elim_vec
  | Inst.MOVQ,
    [ Operand.Reg (Register.Xmm _); Operand.Reg (Register.Xmm _) ] ->
    cfg.Config.mov_elim_vec
  | _ -> false

let describe cfg (i : Inst.t) : t =
  check_supported cfg i;
  if is_zero_idiom i then eliminated_desc cfg ~zero_idiom:true
  else if i.Inst.mnem = Inst.NOP || i.Inst.mnem = Inst.NOPL then
    eliminated_desc cfg ~zero_idiom:false
  else if is_reg_move_elimination cfg i then
    eliminated_desc cfg ~zero_idiom:false
  else begin
    let pm = cfg.Config.pm in
    let p = compute_profile cfg i in
    let loads = Inst.loads i in
    let stores = Inst.stores i in
    let load_uops = if loads then [ { kind = Load; ports = pm.Config.load } ] else [] in
    let store_uops =
      if stores then
        [ { kind = Store_addr; ports = pm.Config.store_agu };
          { kind = Store_data; ports = pm.Config.store_data } ]
      else []
    in
    let dispatched = load_uops @ p.comp @ store_uops in
    let n_comp = List.length p.comp in
    (* fused domain: the load micro-fuses with the first compute µop;
       the store pair is one fused µop *)
    let fused_uops =
      max 1
        (n_comp
         + (if loads && n_comp = 0 then 1 else 0)
         + (if stores then 1 else 0))
    in
    let issued_uops =
      if unlaminates cfg i then
        fused_uops
        + (if loads && n_comp > 0 then 1 else 0)
        + (if stores then 1 else 0)
      else fused_uops
    in
    let complex_decode = fused_uops > 1 in
    let available_simple_dec =
      if fused_uops > cfg.Config.n_decoders then 0
      else if complex_decode then cfg.Config.n_decoders - fused_uops
      else cfg.Config.n_decoders - 1
    in
    (* a fused pair keeps the first instruction's loads and the
       branch, so a memory destination (whose store µops would vanish)
       never fuses *)
    let macro_fusible =
      p.fusible
      && cfg.Config.macro_fusion
      && (not stores)
      && not (Inst.mem_operand i <> None
              && List.exists
                   (function Operand.Imm _ -> true | _ -> false)
                   i.Inst.ops)
    in
    { fused_uops; issued_uops; dispatched; latency = p.lat; complex_decode;
      available_simple_dec; eliminated = false; zero_idiom = false;
      macro_fusible }
  end

(* The condition half of macro-fusion, by the flags each Jcc reads
   (Intel's optimization manual, the macro-fusion table for Sandy
   Bridge and later; Agner Fog's microarchitecture guide): TEST and AND
   fuse with every Jcc; CMP, ADD and SUB with every Jcc but those of
   OF, SF or PF alone; INC and DEC, which leave CF as it was, only
   with the zero and signed-compare conditions.  Whether the first
   instruction is fusible at all on a µarch is [macro_fusible]. *)
let macro_fuses (first : Inst.t) (next : Inst.t) =
  match first.Inst.mnem, next.Inst.mnem with
  | (Inst.TEST | Inst.AND), Inst.Jcc _ -> true
  | (Inst.CMP | Inst.ADD | Inst.SUB), Inst.Jcc c ->
    (match c with
     | Inst.B | Inst.NB | Inst.E | Inst.NE | Inst.BE | Inst.NBE
     | Inst.L | Inst.NL | Inst.LE | Inst.NLE ->
       true
     | Inst.O | Inst.NO | Inst.S | Inst.NS | Inst.P | Inst.NP -> false)
  | (Inst.INC | Inst.DEC), Inst.Jcc c ->
    (match c with
     | Inst.E | Inst.NE | Inst.L | Inst.NL | Inst.LE | Inst.NLE -> true
     | Inst.O | Inst.NO | Inst.B | Inst.NB | Inst.BE | Inst.NBE
     | Inst.S | Inst.NS | Inst.P | Inst.NP ->
       false)
  | _ -> false

let supported cfg i =
  match describe cfg i with
  | _ -> true
  | exception Unsupported _ -> false
