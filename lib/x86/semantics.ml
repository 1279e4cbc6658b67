type resource =
  | Reg of Register.t
  | Flags

let resource_equal (a : resource) (b : resource) = a = b

let pp_resource fmt = function
  | Reg r -> Register.pp fmt r
  | Flags -> Format.pp_print_string fmt "flags"

(* Resource codes: Flags is 0, a GPR is 1 + width * 16 + index, XMMn is
   65 + n and YMMn is 81 + n.  Injective on resources, so a code can
   stand for its resource anywhere equality is all that matters. *)
let n_res = 97

let res_code = function
  | Flags -> 0
  | Reg (Register.Gpr (w, g)) ->
    let wi =
      match w with
      | Register.W8 -> 0
      | Register.W16 -> 1
      | Register.W32 -> 2
      | Register.W64 -> 3
    in
    1 + (wi * 16) + Register.gpr_index g
  | Reg (Register.Xmm n) -> 65 + n
  | Reg (Register.Ymm n) -> 81 + n

let resource_of_code c =
  if c = 0 then Flags
  else if c < 65 then
    let w =
      match (c - 1) / 16 with
      | 0 -> Register.W8
      | 1 -> Register.W16
      | 2 -> Register.W32
      | _ -> Register.W64
    in
    Reg (Register.Gpr (w, Register.gpr_of_index ((c - 1) mod 16)))
  else if c < 81 then Reg (Register.Xmm (c - 65))
  else Reg (Register.Ymm (c - 81))

(* The code of a register's full-width container ([Register.full]),
   without building it. *)
let full_code = function
  | Register.Gpr (_, g) -> 49 + Register.gpr_index g
  | Register.Xmm n | Register.Ymm n -> 81 + n

let gpr64_code g = 49 + Register.gpr_index g

(* Value roles per mnemonic: which operands are read / written, plus
   implicit resources.  [Op k] is operand [k] when it is a register;
   [Merge] is the scalar-SSE merge rule: a reg-reg scalar operation
   also reads its destination (the upper lanes merge).  Address
   registers of memory operands are reads of every mnemonic and are
   not listed.  Every list below is a compile-time constant, so walking
   the table allocates nothing. *)
type role = Op of int | Merge | Eflags | Rax | Rdx | Rsp

let read_roles (i : Inst.t) =
  let open Inst in
  match i.mnem with
  | ADD | SUB | AND | OR | XOR | SHL | SHR | SAR | ROL | ROR -> [ Op 0; Op 1 ]
  | ADC | SBB -> [ Op 0; Op 1; Eflags ]
  | CMP | TEST | UCOMISS | UCOMISD -> [ Op 0; Op 1 ]
  | MOV | MOVZX | MOVSX | MOVSXD | BSF | BSR | POPCNT | LZCNT | TZCNT
  | SQRTPS | SQRTPD | PSHUFD | VSQRTPS | VMOVAPS | VMOVUPS
  | MOVAPS | MOVUPS | MOVAPD | MOVD | MOVQ ->
    [ Op 1 ]
  | MOVSS | MOVSD | CVTSI2SD | CVTSI2SS | CVTSS2SD | CVTSD2SS ->
    [ Merge; Op 1 ]
  | CVTTSD2SI | CVTDQ2PS | CVTPS2DQ | CVTTPS2DQ -> [ Op 1 ]
  | SQRTSS | SQRTSD -> [ Merge; Op 1 ]
  | LEA -> []
  | CWDE | CDQE -> [ Rax ]
  | SHLD | SHRD -> [ Op 0; Op 1 ]
  | BT | BTS | BTR | BTC -> [ Op 0; Op 1 ]
  | MOVBE | MOVDQA | MOVDQU | VMOVDQA | VMOVDQU -> [ Op 1 ]
  | CLC | STC -> []
  | CMC -> [ Eflags ]
  | ANDN | BZHI | SHLX | SHRX | SARX -> [ Op 1; Op 2 ]
  | INC | DEC | NEG | NOT | BSWAP -> [ Op 0 ]
  | IMUL ->
    (match i.ops with
     | [ _; _ ] -> [ Op 0; Op 1 ] (* dst * src *)
     | _ -> [ Op 1 ] (* dst = src * imm *))
  | MUL -> [ Op 0; Rax ]
  | DIV | IDIV -> [ Op 0; Rax; Rdx ]
  | XCHG -> [ Op 0; Op 1 ]
  | PUSH -> [ Op 0; Rsp ]
  | POP -> [ Rsp ]
  | CDQ | CQO -> [ Rax ]
  | NOP | NOPL | JMP -> []
  | Jcc _ | SETcc _ -> [ Eflags ]
  | CMOVcc _ -> [ Eflags; Op 0; Op 1 ]
  | ADDPS | ADDPD | ADDSS | ADDSD | SUBPS | SUBPD | SUBSS | SUBSD
  | MULPS | MULPD | MULSS | MULSD | DIVPS | DIVPD | DIVSS | DIVSD
  | MINPS | MAXPS | MINPD | MAXPD | MINSS | MAXSS | MINSD | MAXSD
  | ANDPS | ANDPD | ORPS | XORPS | XORPD
  | PXOR | POR | PAND | PADDB | PADDD | PADDQ | PSUBD
  | PMULLD | PMULUDQ | PUNPCKLDQ
  | PCMPEQB | PCMPEQD | PCMPGTD | PMAXSD | PMINSD | PMAXUB | PMINUB
  | PSHUFB | PALIGNR | PACKSSDW | HADDPS | ROUNDSD
  | SHUFPS | UNPCKHPS | UNPCKLPD ->
    [ Op 0; Op 1 ]
  | PSLLD | PSRLD | PSLLDQ | PSRLDQ -> [ Op 0 ]
  | VADDPS | VADDPD | VSUBPS | VMULPS | VMULPD | VDIVPS | VXORPS
  | VANDPS | VMINPS | VMAXPS | VPXOR | VPADDD | VPMULLD | VPAND | VPOR ->
    [ Op 1; Op 2 ]
  | VFMADD231PS | VFMADD231PD | VFMADD231SS | VFMADD231SD
  | VFMADD132PS | VFMADD213PS ->
    [ Op 0; Op 1; Op 2 ]

let write_roles (i : Inst.t) =
  let open Inst in
  match i.mnem with
  | ADD | SUB | ADC | SBB | AND | OR | XOR -> [ Op 0; Eflags ]
  | CMP | TEST | UCOMISS | UCOMISD -> [ Eflags ]
  | MOV | MOVZX | MOVSX | MOVSXD | LEA | CMOVcc _ -> [ Op 0 ]
  | SETcc _ -> [ Op 0 ]
  | INC | DEC | NEG -> [ Op 0; Eflags ]
  | NOT | BSWAP -> [ Op 0 ]
  | IMUL -> [ Op 0; Eflags ]
  | MUL | DIV | IDIV -> [ Rax; Rdx; Eflags ]
  | SHL | SHR | SAR | ROL | ROR -> [ Op 0; Eflags ]
  | XCHG -> [ Op 0; Op 1 ]
  | PUSH -> [ Rsp ]
  | POP -> [ Op 0; Rsp ]
  | BSF | BSR | POPCNT | LZCNT | TZCNT -> [ Op 0; Eflags ]
  | CDQ | CQO -> [ Rdx ]
  | CWDE | CDQE -> [ Rax ]
  | SHLD | SHRD -> [ Op 0; Eflags ]
  | BT -> [ Eflags ]
  | BTS | BTR | BTC -> [ Op 0; Eflags ]
  | MOVBE -> [ Op 0 ]
  | CLC | STC | CMC -> [ Eflags ]
  | ANDN | BZHI -> [ Op 0; Eflags ]
  | SHLX | SHRX | SARX -> [ Op 0 ]
  | NOP | NOPL | JMP | Jcc _ -> []
  | MOVAPS | MOVUPS | MOVAPD | MOVSS | MOVSD | MOVDQA | MOVDQU
  | MOVD | MOVQ
  | ADDPS | ADDPD | ADDSS | ADDSD | SUBPS | SUBPD | SUBSS | SUBSD
  | MULPS | MULPD | MULSS | MULSD | DIVPS | DIVPD | DIVSS | DIVSD
  | MINPS | MAXPS | MINPD | MAXPD | MINSS | MAXSS | MINSD | MAXSD
  | SQRTPS | SQRTPD | SQRTSS | SQRTSD
  | ANDPS | ANDPD | ORPS | XORPS | XORPD
  | HADDPS | ROUNDSD | SHUFPS | UNPCKHPS | UNPCKLPD
  | PXOR | POR | PAND | PADDB | PADDD | PADDQ | PSUBD
  | PMULLD | PMULUDQ | PUNPCKLDQ | PSHUFD | PSLLD | PSRLD
  | PSLLDQ | PSRLDQ
  | PCMPEQB | PCMPEQD | PCMPGTD | PMAXSD | PMINSD | PMAXUB | PMINUB
  | PSHUFB | PALIGNR | PACKSSDW
  | CVTSI2SD | CVTSI2SS | CVTTSD2SI | CVTSS2SD | CVTSD2SS
  | CVTDQ2PS | CVTPS2DQ | CVTTPS2DQ
  | VMOVAPS | VMOVUPS | VMOVDQA | VMOVDQU
  | VADDPS | VADDPD | VSUBPS | VMULPS | VMULPD
  | VDIVPS | VSQRTPS | VXORPS | VANDPS | VMINPS | VMAXPS
  | VPXOR | VPADDD | VPMULLD | VPAND | VPOR
  | VFMADD231PS | VFMADD231PD | VFMADD231SS | VFMADD231SD
  | VFMADD132PS | VFMADD213PS ->
    [ Op 0 ]

(* The code a role names in [ops], or -1 when it names nothing (an
   operand that is absent or not a register). *)
let rec op_code ops k =
  match ops with
  | [] -> -1
  | Operand.Reg r :: _ when k = 0 -> full_code r
  | _ :: _ when k = 0 -> -1
  | _ :: rest -> op_code rest (k - 1)

let role_code ops = function
  | Op k -> op_code ops k
  | Merge ->
    (match ops with
     | Operand.Reg r :: Operand.Reg _ :: _ -> full_code r
     | _ -> -1)
  | Eflags -> 0
  | Rax -> gpr64_code Register.RAX
  | Rdx -> gpr64_code Register.RDX
  | Rsp -> gpr64_code Register.RSP

let rec fold_roles f acc ops = function
  | [] -> acc
  | role :: rest ->
    let c = role_code ops role in
    fold_roles f (if c >= 0 then f acc c else acc) ops rest

(* Address registers of all memory operands: always reads. *)
let rec fold_addr f acc = function
  | [] -> acc
  | Operand.Mem m :: rest ->
    let acc =
      match m.Operand.base with Some g -> f acc (gpr64_code g) | None -> acc
    in
    let acc =
      match m.Operand.index with
      | Some (g, _) -> f acc (gpr64_code g)
      | None -> acc
    in
    fold_addr f acc rest
  | _ :: rest -> fold_addr f acc rest

let fold_read_codes f acc (i : Inst.t) =
  fold_addr f (fold_roles f acc i.Inst.ops (read_roles i)) i.Inst.ops

let fold_write_codes f acc (i : Inst.t) =
  fold_roles f acc i.Inst.ops (write_roles i)

(* The list views: the codes in order, first occurrences kept. *)
let view fold i =
  fold (fun acc c -> if List.mem c acc then acc else c :: acc) [] i
  |> List.rev_map resource_of_code

let reads i = view fold_read_codes i

let writes i = view fold_write_codes i
