(** Instruction representation: mnemonic plus operand list.

    The mnemonic set is a substantial x86-64 subset covering the
    instruction mix found in compiler-generated basic blocks: integer
    ALU, moves, address generation, multiplies/divides, shifts, bit
    scans, conditional moves/sets, branches, scalar and packed SSE
    floating point, SSE integer, and VEX-encoded AVX including FMA. *)

(** Condition codes, in hardware encoding order (tttn field). *)
type cond =
  | O | NO | B | NB | E | NE | BE | NBE
  | S | NS | P | NP | L | NL | LE | NLE

type mnemonic =
  (* integer ALU *)
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
  (* BMI (VEX-encoded general-purpose) *)
  | ANDN | BZHI | SHLX | SHRX | SARX
  (* control flow *)
  | JMP
  | Jcc of cond
  | SETcc of cond
  | CMOVcc of cond
  (* SSE data movement *)
  | MOVAPS | MOVUPS | MOVAPD | MOVSS | MOVSD
  | MOVDQA | MOVDQU
  | MOVD | MOVQ
  (* SSE floating-point arithmetic *)
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
  (* SSE integer *)
  | PXOR | POR | PAND
  | PADDB | PADDD | PADDQ | PSUBD
  | PMULLD | PMULUDQ
  | PCMPEQB | PCMPEQD | PCMPGTD
  | PMAXSD | PMINSD | PMAXUB | PMINUB
  | PSHUFB | PALIGNR | PACKSSDW
  | PUNPCKLDQ | PSHUFD | PSLLD | PSRLD | PSLLDQ | PSRLDQ
  (* SSE conversions *)
  | CVTSI2SD | CVTSI2SS | CVTTSD2SI | CVTSS2SD | CVTSD2SS
  | CVTDQ2PS | CVTPS2DQ | CVTTPS2DQ
  (* AVX / VEX-encoded *)
  | VMOVAPS | VMOVUPS | VMOVDQA | VMOVDQU
  | VADDPS | VADDPD | VSUBPS | VMULPS | VMULPD | VDIVPS
  | VSQRTPS | VXORPS | VANDPS | VMINPS | VMAXPS
  | VPXOR | VPADDD | VPMULLD | VPAND | VPOR
  | VFMADD231PS | VFMADD231PD | VFMADD231SS | VFMADD231SD
  | VFMADD132PS | VFMADD213PS

type t = { mnem : mnemonic; ops : Operand.t list }

val make : mnemonic -> Operand.t list -> t
val equal : t -> t -> bool

(** [cond_code c] is the 4-bit tttn encoding of [c]. *)
val cond_code : cond -> int

(** [cond_of_code n] is the inverse of {!cond_code}.
    @raise Invalid_argument if [n] is outside [0, 15]. *)
val cond_of_code : int -> cond

(** [cond_name c] is the canonical suffix ("e", "ne", "a", "ge", ...). *)
val cond_name : cond -> string

val cond_of_name : string -> cond option

(** All sixteen condition codes, in encoding order. *)
val all_conds : cond list

(** Every mnemonic, with the [Jcc]/[SETcc]/[CMOVcc] families
    instantiated over all sixteen condition codes. Lets the static
    checker ([facile check]) prove its form enumeration covers the
    whole instruction space. *)
val all_mnemonics : mnemonic list

(** Canonical lower-case mnemonic text ("add", "jne", "cmovge", ...). *)
val mnemonic_name : mnemonic -> string

val mnemonic_of_name : string -> mnemonic option

(** [is_branch i] holds for JMP and all conditional jumps. *)
val is_branch : t -> bool

(** [is_vex i] holds for VEX-encoded (AVX) mnemonics. *)
val is_vex : t -> bool

(** [loads i] / [stores i] report whether the instruction has a memory
    source / destination operand (LEA does not access memory). *)
val loads : t -> bool

val stores : t -> bool

(** [mem_operand i] is the memory operand, if any. *)
val mem_operand : t -> Operand.mem option

(** [vec_mem_width ~w ~ymm m] is the canonical memory access width in
    bytes of vector mnemonic [m]: 4 for scalar-single, 8 for
    scalar-double, and the full register width for packed operations.
    [w] is the REX/VEX.W bit (selects 4 vs. 8 for MOVD/CVTSI2xx);
    [ymm] selects 32 over 16 for packed AVX. Used by both the decoder
    and the block generator so that round-trips are exact. *)
val vec_mem_width : w:bool -> ymm:bool -> mnemonic -> int

(** Intel-syntax printer, e.g. [add rax, qword ptr \[rbx+8\]]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
