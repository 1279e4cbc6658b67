type cond =
  | O | NO | B | NB | E | NE | BE | NBE
  | S | NS | P | NP | L | NL | LE | NLE

type mnemonic =
  | ADD | SUB | ADC | SBB | AND | OR | XOR | CMP
  | MOV | TEST | LEA | INC | DEC | NEG | NOT
  | IMUL | MUL | DIV | IDIV
  | SHL | SHR | SAR | ROL | ROR
  | MOVZX | MOVSX | MOVSXD | XCHG | BSWAP
  | PUSH | POP
  | BSF | BSR | POPCNT | LZCNT | TZCNT
  | CDQ | CQO | CWDE | CDQE | NOP | NOPL
  | SHLD | SHRD
  | BT | BTS | BTR | BTC
  | MOVBE
  | CLC | STC | CMC
  | ANDN | BZHI | SHLX | SHRX | SARX
  | JMP
  | Jcc of cond
  | SETcc of cond
  | CMOVcc of cond
  | MOVAPS | MOVUPS | MOVAPD | MOVSS | MOVSD
  | MOVDQA | MOVDQU
  | MOVD | MOVQ
  | ADDPS | ADDPD | ADDSS | ADDSD
  | SUBPS | SUBPD | SUBSS | SUBSD
  | MULPS | MULPD | MULSS | MULSD
  | DIVPS | DIVPD | DIVSS | DIVSD
  | MINPS | MAXPS | MINPD | MAXPD | MINSS | MAXSS | MINSD | MAXSD
  | SQRTPS | SQRTPD | SQRTSS | SQRTSD
  | ANDPS | ANDPD | ORPS | XORPS | XORPD
  | UCOMISS | UCOMISD
  | HADDPS | ROUNDSD
  | SHUFPS | UNPCKHPS | UNPCKLPD
  | PXOR | POR | PAND
  | PADDB | PADDD | PADDQ | PSUBD
  | PMULLD | PMULUDQ
  | PCMPEQB | PCMPEQD | PCMPGTD
  | PMAXSD | PMINSD | PMAXUB | PMINUB
  | PSHUFB | PALIGNR | PACKSSDW
  | PUNPCKLDQ | PSHUFD | PSLLD | PSRLD | PSLLDQ | PSRLDQ
  | CVTSI2SD | CVTSI2SS | CVTTSD2SI | CVTSS2SD | CVTSD2SS
  | CVTDQ2PS | CVTPS2DQ | CVTTPS2DQ
  | VMOVAPS | VMOVUPS | VMOVDQA | VMOVDQU
  | VADDPS | VADDPD | VSUBPS | VMULPS | VMULPD | VDIVPS
  | VSQRTPS | VXORPS | VANDPS | VMINPS | VMAXPS
  | VPXOR | VPADDD | VPMULLD | VPAND | VPOR
  | VFMADD231PS | VFMADD231PD | VFMADD231SS | VFMADD231SD
  | VFMADD132PS | VFMADD213PS

type t = { mnem : mnemonic; ops : Operand.t list }

let make mnem ops = { mnem; ops }
let equal (a : t) (b : t) = a = b

let all_conds = [ O; NO; B; NB; E; NE; BE; NBE; S; NS; P; NP; L; NL; LE; NLE ]

let cond_code = function
  | O -> 0 | NO -> 1 | B -> 2 | NB -> 3 | E -> 4 | NE -> 5 | BE -> 6
  | NBE -> 7 | S -> 8 | NS -> 9 | P -> 10 | NP -> 11 | L -> 12 | NL -> 13
  | LE -> 14 | NLE -> 15

let cond_of_code n =
  match List.nth_opt all_conds n with
  | Some c -> c
  | None -> invalid_arg "Inst.cond_of_code"

let cond_name = function
  | O -> "o" | NO -> "no" | B -> "b" | NB -> "ae"
  | E -> "e" | NE -> "ne" | BE -> "be" | NBE -> "a"
  | S -> "s" | NS -> "ns" | P -> "p" | NP -> "np"
  | L -> "l" | NL -> "ge" | LE -> "le" | NLE -> "g"

(* Accept the canonical name plus the common synonyms. *)
let cond_of_name s =
  match s with
  | "o" -> Some O | "no" -> Some NO
  | "b" | "c" | "nae" -> Some B
  | "ae" | "nb" | "nc" -> Some NB
  | "e" | "z" -> Some E
  | "ne" | "nz" -> Some NE
  | "be" | "na" -> Some BE
  | "a" | "nbe" -> Some NBE
  | "s" -> Some S | "ns" -> Some NS
  | "p" | "pe" -> Some P
  | "np" | "po" -> Some NP
  | "l" | "nge" -> Some L
  | "ge" | "nl" -> Some NL
  | "le" | "ng" -> Some LE
  | "g" | "nle" -> Some NLE
  | _ -> None

let simple_mnemonics =
  [ ADD, "add"; SUB, "sub"; ADC, "adc"; SBB, "sbb"; AND, "and"; OR, "or";
    XOR, "xor"; CMP, "cmp"; MOV, "mov"; TEST, "test"; LEA, "lea";
    INC, "inc"; DEC, "dec"; NEG, "neg"; NOT, "not";
    IMUL, "imul"; MUL, "mul"; DIV, "div"; IDIV, "idiv";
    SHL, "shl"; SHR, "shr"; SAR, "sar"; ROL, "rol"; ROR, "ror";
    MOVZX, "movzx"; MOVSX, "movsx"; MOVSXD, "movsxd"; XCHG, "xchg";
    BSWAP, "bswap"; PUSH, "push"; POP, "pop";
    BSF, "bsf"; BSR, "bsr"; POPCNT, "popcnt"; LZCNT, "lzcnt";
    TZCNT, "tzcnt"; CDQ, "cdq"; CQO, "cqo"; CWDE, "cwde"; CDQE, "cdqe";
    NOP, "nop"; NOPL, "nopl";
    SHLD, "shld"; SHRD, "shrd";
    BT, "bt"; BTS, "bts"; BTR, "btr"; BTC, "btc";
    MOVBE, "movbe"; CLC, "clc"; STC, "stc"; CMC, "cmc";
    ANDN, "andn"; BZHI, "bzhi"; SHLX, "shlx"; SHRX, "shrx"; SARX, "sarx";
    JMP, "jmp";
    MOVAPS, "movaps"; MOVUPS, "movups"; MOVAPD, "movapd";
    MOVSS, "movss"; MOVSD, "movsd"; MOVDQA, "movdqa"; MOVDQU, "movdqu";
    MOVD, "movd"; MOVQ, "movq";
    ADDPS, "addps"; ADDPD, "addpd"; ADDSS, "addss"; ADDSD, "addsd";
    SUBPS, "subps"; SUBPD, "subpd"; SUBSS, "subss"; SUBSD, "subsd";
    MULPS, "mulps"; MULPD, "mulpd"; MULSS, "mulss"; MULSD, "mulsd";
    DIVPS, "divps"; DIVPD, "divpd"; DIVSS, "divss"; DIVSD, "divsd";
    MINPS, "minps"; MAXPS, "maxps"; MINPD, "minpd"; MAXPD, "maxpd";
    MINSS, "minss"; MAXSS, "maxss"; MINSD, "minsd"; MAXSD, "maxsd";
    HADDPS, "haddps"; ROUNDSD, "roundsd";
    SHUFPS, "shufps"; UNPCKHPS, "unpckhps"; UNPCKLPD, "unpcklpd";
    SQRTPS, "sqrtps"; SQRTPD, "sqrtpd"; SQRTSS, "sqrtss"; SQRTSD, "sqrtsd";
    ANDPS, "andps"; ANDPD, "andpd"; ORPS, "orps"; XORPS, "xorps";
    XORPD, "xorpd"; UCOMISS, "ucomiss"; UCOMISD, "ucomisd";
    PXOR, "pxor"; POR, "por"; PAND, "pand";
    PADDB, "paddb"; PADDD, "paddd"; PADDQ, "paddq"; PSUBD, "psubd";
    PMULLD, "pmulld"; PMULUDQ, "pmuludq";
    PCMPEQB, "pcmpeqb"; PCMPEQD, "pcmpeqd"; PCMPGTD, "pcmpgtd";
    PMAXSD, "pmaxsd"; PMINSD, "pminsd"; PMAXUB, "pmaxub"; PMINUB, "pminub";
    PSHUFB, "pshufb"; PALIGNR, "palignr"; PACKSSDW, "packssdw";
    PSLLDQ, "pslldq"; PSRLDQ, "psrldq";
    PUNPCKLDQ, "punpckldq"; PSHUFD, "pshufd"; PSLLD, "pslld";
    PSRLD, "psrld";
    CVTSI2SD, "cvtsi2sd"; CVTSI2SS, "cvtsi2ss"; CVTTSD2SI, "cvttsd2si";
    CVTSS2SD, "cvtss2sd"; CVTSD2SS, "cvtsd2ss";
    CVTDQ2PS, "cvtdq2ps"; CVTPS2DQ, "cvtps2dq"; CVTTPS2DQ, "cvttps2dq";
    VMOVAPS, "vmovaps"; VMOVUPS, "vmovups";
    VMOVDQA, "vmovdqa"; VMOVDQU, "vmovdqu";
    VMINPS, "vminps"; VMAXPS, "vmaxps"; VPAND, "vpand"; VPOR, "vpor";
    VFMADD132PS, "vfmadd132ps"; VFMADD213PS, "vfmadd213ps";
    VADDPS, "vaddps"; VADDPD, "vaddpd"; VSUBPS, "vsubps";
    VMULPS, "vmulps"; VMULPD, "vmulpd"; VDIVPS, "vdivps";
    VSQRTPS, "vsqrtps"; VXORPS, "vxorps"; VANDPS, "vandps";
    VPXOR, "vpxor"; VPADDD, "vpaddd"; VPMULLD, "vpmulld";
    VFMADD231PS, "vfmadd231ps"; VFMADD231PD, "vfmadd231pd";
    VFMADD231SS, "vfmadd231ss"; VFMADD231SD, "vfmadd231sd" ]

let mnemonic_name = function
  | Jcc c -> "j" ^ cond_name c
  | SETcc c -> "set" ^ cond_name c
  | CMOVcc c -> "cmov" ^ cond_name c
  | m -> List.assoc m simple_mnemonics

let all_mnemonics =
  List.map fst simple_mnemonics
  @ List.concat_map (fun c -> [ Jcc c; SETcc c; CMOVcc c ]) all_conds

let strip_prefix p s =
  let n = String.length p in
  if String.length s > n && String.sub s 0 n = p then
    Some (String.sub s n (String.length s - n))
  else None

let mnemonic_of_name s =
  let s = String.lowercase_ascii s in
  let rec find = function
    | [] -> None
    | (m, n) :: rest -> if n = s then Some m else find rest
  in
  match find simple_mnemonics with
  | Some _ as r -> r
  | None ->
    (* setcc / cmovcc before jcc: "set"/"cmov" are unambiguous prefixes *)
    (match strip_prefix "set" s with
     | Some c -> Option.map (fun c -> SETcc c) (cond_of_name c)
     | None ->
       match strip_prefix "cmov" s with
       | Some c -> Option.map (fun c -> CMOVcc c) (cond_of_name c)
       | None ->
         match strip_prefix "j" s with
         | Some c -> Option.map (fun c -> Jcc c) (cond_of_name c)
         | None -> None)

let is_branch i = match i.mnem with JMP | Jcc _ -> true | _ -> false

let is_vex i =
  match i.mnem with
  | VMOVAPS | VMOVUPS | VMOVDQA | VMOVDQU
  | VADDPS | VADDPD | VSUBPS | VMULPS | VMULPD
  | VDIVPS | VSQRTPS | VXORPS | VANDPS | VMINPS | VMAXPS
  | VPXOR | VPADDD | VPMULLD | VPAND | VPOR
  | VFMADD231PS | VFMADD231PD | VFMADD231SS | VFMADD231SD
  | VFMADD132PS | VFMADD213PS
  | ANDN | BZHI | SHLX | SHRX | SARX -> true
  | _ -> false

let mem_operand i =
  if i.mnem = LEA || i.mnem = NOPL then None
  else
    List.find_map (function Operand.Mem m -> Some m | _ -> None) i.ops

let loads i =
  match mem_operand i with
  | None -> i.mnem = POP
  | Some _ ->
    (* memory-destination forms both load and store, except plain
       stores (MOV/MOVAPS/... with a memory destination just store) *)
    (match i.mnem, i.ops with
     | (MOV | MOVAPS | MOVUPS | MOVAPD | MOVSS | MOVSD | MOVD | MOVQ
       | MOVDQA | MOVDQU | VMOVAPS | VMOVUPS | VMOVDQA | VMOVDQU | MOVBE),
       Operand.Mem _ :: _ -> false
     | (SETcc _), _ -> false
     | _ -> true)

let stores i =
  match i.ops with
  | Operand.Mem _ :: _ ->
    (* first-operand memory is a destination except for CMP/TEST/UCOMI *)
    (match i.mnem with
     | CMP | TEST | UCOMISS | UCOMISD | NOPL | BT -> false
     | _ -> true)
  | _ -> i.mnem = PUSH

let vec_mem_width ~w ~ymm = function
  | MOVSS | ADDSS | SUBSS | MULSS | DIVSS | SQRTSS | CVTSS2SD | UCOMISS
  | MINSS | MAXSS | VFMADD231SS -> 4
  | MOVSD | ADDSD | SUBSD | MULSD | DIVSD | SQRTSD | CVTSD2SS | UCOMISD
  | MINSD | MAXSD | ROUNDSD | CVTTSD2SI | VFMADD231SD -> 8
  | MOVD | CVTSI2SD | CVTSI2SS -> if w then 8 else 4
  | MOVQ -> 8
  | _ -> if ymm then 32 else 16

let pp fmt i =
  Format.pp_print_string fmt (mnemonic_name i.mnem);
  match i.ops with
  | [] -> ()
  | ops ->
    Format.pp_print_string fmt " ";
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
      Operand.pp fmt ops

let to_string i = Format.asprintf "%a" pp i
