(* Form-indexed per-microarchitecture instruction tables.

   [Db.describe] re-derives a descriptor on every call by matching on
   the mnemonic and operand shapes.  That match is exactly as large as
   the instruction set and sits on the hottest path of the model
   (block analysis calls it once per instruction).  This module calls
   [Db.describe] once per form of the dense form-id space enumerated
   by [Forms] (one id per canonical mnemonic x operand-shape) on each
   microarchitecture, keeps the descriptor it returns, and serves
   lookups by one hashtable probe and one array index:

     instruction --key--> form id --index--> descriptor

   The [key] function projects an instruction onto the features
   [Db.describe] actually distinguishes (mnemonic, memory-operand
   placement, indexed addressing, ymm width, integer width, immediate
   placement, register-source count, xmm positions, LEA shape).  Two
   instructions with the same key are table-equivalent by
   construction; the build step verifies this on the enumerated forms
   and the [flat] check family re-verifies it against [Db.describe]
   exhaustively (555 forms x 9 arches), so the flat path cannot drift
   from the hand-written source of truth.

   Safety: lookups fall back to [Db.describe] whenever the key misses
   (an operand shape outside the enumerated space) or the config is
   not the canonical one for its arch (ablation configs flip feature
   flags such as [macro_fusion] that are baked into the table).  The
   fallback is correctness-preserving: slower, never wrong. *)

open Facile_x86
open Facile_uarch

let n_arches = 9

let arch_index = function
  | Config.SNB -> 0
  | Config.IVB -> 1
  | Config.HSW -> 2
  | Config.BDW -> 3
  | Config.SKL -> 4
  | Config.CLX -> 5
  | Config.ICL -> 6
  | Config.TGL -> 7
  | Config.RKL -> 8

(* The canonical config records of [Config.all], by arch index.  Table
   lookups are only valid against these exact records: derived configs
   (e.g. the baselines' de-fused ablations) change fields the table
   bakes in, so they take the [Db.describe] fallback. *)
let canonical : Config.t array =
  let a = Array.make n_arches (List.hd Config.all) in
  List.iter (fun c -> a.(arch_index c.Config.arch) <- c) Config.all;
  a

let is_canonical cfg = canonical.(arch_index cfg.Config.arch) == cfg

(* ------------------------------------------------------------------ *)
(* Shape key: every feature [Db.describe] dispatches on, packed into   *)
(* one immediate int (mnemonic code * 4096 + 12 feature bits).         *)

(* A distinct code per mnemonic.  The match is exhaustive, so a
   mnemonic added to [Inst] does not compile until it has a code. *)
let mnem_code : Inst.mnemonic -> int =
  let open Inst in
  function
  | ADD -> 0 | SUB -> 1 | ADC -> 2 | SBB -> 3 | AND -> 4 | OR -> 5 | XOR -> 6
  | CMP -> 7 | MOV -> 8 | TEST -> 9 | LEA -> 10 | INC -> 11 | DEC -> 12
  | NEG -> 13 | NOT -> 14 | IMUL -> 15 | MUL -> 16 | DIV -> 17 | IDIV -> 18
  | SHL -> 19 | SHR -> 20 | SAR -> 21 | ROL -> 22 | ROR -> 23 | MOVZX -> 24
  | MOVSX -> 25 | MOVSXD -> 26 | XCHG -> 27 | BSWAP -> 28 | PUSH -> 29
  | POP -> 30 | BSF -> 31 | BSR -> 32 | POPCNT -> 33 | LZCNT -> 34
  | TZCNT -> 35 | CDQ -> 36 | CQO -> 37 | CWDE -> 38 | CDQE -> 39 | NOP -> 40
  | NOPL -> 41 | SHLD -> 42 | SHRD -> 43 | BT -> 44 | BTS -> 45 | BTR -> 46
  | BTC -> 47 | MOVBE -> 48 | CLC -> 49 | STC -> 50 | CMC -> 51 | ANDN -> 52
  | BZHI -> 53 | SHLX -> 54 | SHRX -> 55 | SARX -> 56 | JMP -> 57
  | MOVAPS -> 58 | MOVUPS -> 59 | MOVAPD -> 60 | MOVSS -> 61 | MOVSD -> 62
  | MOVDQA -> 63 | MOVDQU -> 64 | MOVD -> 65 | MOVQ -> 66 | ADDPS -> 67
  | ADDPD -> 68 | ADDSS -> 69 | ADDSD -> 70 | SUBPS -> 71 | SUBPD -> 72
  | SUBSS -> 73 | SUBSD -> 74 | MULPS -> 75 | MULPD -> 76 | MULSS -> 77
  | MULSD -> 78 | DIVPS -> 79 | DIVPD -> 80 | DIVSS -> 81 | DIVSD -> 82
  | MINPS -> 83 | MAXPS -> 84 | MINPD -> 85 | MAXPD -> 86 | MINSS -> 87
  | MAXSS -> 88 | MINSD -> 89 | MAXSD -> 90 | SQRTPS -> 91 | SQRTPD -> 92
  | SQRTSS -> 93 | SQRTSD -> 94 | ANDPS -> 95 | ANDPD -> 96 | ORPS -> 97
  | XORPS -> 98 | XORPD -> 99 | UCOMISS -> 100 | UCOMISD -> 101 | HADDPS -> 102
  | ROUNDSD -> 103 | SHUFPS -> 104 | UNPCKHPS -> 105 | UNPCKLPD -> 106
  | PXOR -> 107 | POR -> 108 | PAND -> 109 | PADDB -> 110 | PADDD -> 111
  | PADDQ -> 112 | PSUBD -> 113 | PMULLD -> 114 | PMULUDQ -> 115
  | PCMPEQB -> 116 | PCMPEQD -> 117 | PCMPGTD -> 118 | PMAXSD -> 119
  | PMINSD -> 120 | PMAXUB -> 121 | PMINUB -> 122 | PSHUFB -> 123
  | PALIGNR -> 124 | PACKSSDW -> 125 | PUNPCKLDQ -> 126 | PSHUFD -> 127
  | PSLLD -> 128 | PSRLD -> 129 | PSLLDQ -> 130 | PSRLDQ -> 131
  | CVTSI2SD -> 132 | CVTSI2SS -> 133 | CVTTSD2SI -> 134 | CVTSS2SD -> 135
  | CVTSD2SS -> 136 | CVTDQ2PS -> 137 | CVTPS2DQ -> 138 | CVTTPS2DQ -> 139
  | VMOVAPS -> 140 | VMOVUPS -> 141 | VMOVDQA -> 142 | VMOVDQU -> 143
  | VADDPS -> 144 | VADDPD -> 145 | VSUBPS -> 146 | VMULPS -> 147
  | VMULPD -> 148 | VDIVPS -> 149 | VSQRTPS -> 150 | VXORPS -> 151
  | VANDPS -> 152 | VMINPS -> 153 | VMAXPS -> 154 | VPXOR -> 155
  | VPADDD -> 156 | VPMULLD -> 157 | VPAND -> 158 | VPOR -> 159
  | VFMADD231PS -> 160 | VFMADD231PD -> 161 | VFMADD231SS -> 162
  | VFMADD231SD -> 163 | VFMADD132PS -> 164 | VFMADD213PS -> 165
  | Jcc c -> 166 + cond_code c
  | SETcc c -> 182 + cond_code c
  | CMOVcc c -> 198 + cond_code c

let n_key_bits = 12

let width_code = function
  | Register.W8 -> 0
  | Register.W16 -> 1
  | Register.W32 -> 2
  | Register.W64 -> 3

let mem_width_code = function 1 -> 0 | 2 -> 1 | 4 -> 2 | _ -> 3

(* The operand features [Db.describe] dispatches on, in one walk that
   allocates nothing ([describe] computes a key for every instruction
   of every analyzed block).  Bits: 1 a memory source (operand 1 or
   later), 2 a memory destination (operand 0), 4 indexed addressing, 8
   ymm width (a YMM register or a 32-byte memory operand), 64 an
   immediate second operand, 128 any immediate, 256 two or more
   register operands, 512 a three-component LEA address, 1024 XMM
   operand 0, 2048 XMM operand 1; bits 4-5 the width of the first GPR
   or memory operand, as [Db.int_width] (64 bits when there is none).
   [k] is the operand position, [regs] the register operands so far,
   [w] the width code or -1 before the first GPR or memory operand. *)
let rec features ~lea k bits regs w = function
  | [] ->
    ((if w < 0 then 3 else w) lsl 4)
    lor bits
    lor (if regs >= 2 then 256 else 0)
  | Operand.Reg (Register.Gpr (gw, _)) :: rest ->
    features ~lea (k + 1) bits (regs + 1)
      (if w < 0 then width_code gw else w) rest
  | Operand.Reg (Register.Ymm _) :: rest ->
    features ~lea (k + 1) (bits lor 8) (regs + 1) w rest
  | Operand.Reg (Register.Xmm _) :: rest ->
    let xmm = if k = 0 then 1024 else if k = 1 then 2048 else 0 in
    features ~lea (k + 1) (bits lor xmm) (regs + 1) w rest
  | Operand.Mem m :: rest ->
    let indexed = match m.Operand.index with Some _ -> true | None -> false in
    let lea3 =
      match m.Operand.base with
      | Some _ -> lea && indexed && m.Operand.disp <> 0
      | None -> false
    in
    let bits =
      bits
      lor (if k = 0 then 2 else 1)
      lor (if indexed then 4 else 0)
      lor (if m.Operand.width = 32 then 8 else 0)
      lor (if lea3 then 512 else 0)
    in
    features ~lea (k + 1) bits regs
      (if w < 0 then mem_width_code m.Operand.width else w) rest
  | Operand.Imm _ :: rest ->
    features ~lea (k + 1) (bits lor 128 lor (if k = 1 then 64 else 0)) regs w
      rest

let key (i : Inst.t) =
  (mnem_code i.Inst.mnem lsl n_key_bits)
  lor features
        ~lea:(match i.Inst.mnem with Inst.LEA -> true | _ -> false)
        0 0 0 (-1) i.Inst.ops

(* ------------------------------------------------------------------ *)
(* Per-arch table: one descriptor per form id.                         *)

let forms : Inst.t array = Array.of_list Forms.all
let n_forms = Array.length forms
let form id = forms.(id)

type table = {
  descs : Db.t option array;
      (* per form id: what [Db.describe] returns on the canonical
         config, [None] where it raises [Unsupported]; a table hit
         returns the same immutable record every time *)
  slots : (int, int) Hashtbl.t;
      (* shape key -> representative form id; keys whose forms disagree
         are left out so such shapes take the describe fallback *)
  ambiguous : (int * int) list;
      (* (form id, form id) pairs sharing a key but disagreeing — must
         stay empty; surfaced as findings by the flat check family *)
  (* shared eliminated descriptors (depend only on n_decoders) *)
  elim_zero : Db.t;
  elim_plain : Db.t;
}

let build cfg =
  let descs =
    Array.map
      (fun f ->
        match Db.describe cfg f with
        | d -> Some d
        | exception Db.Unsupported _ -> None)
      forms
  in
  (* key -> representative form id; drop keys whose forms disagree *)
  let slots = Hashtbl.create (2 * n_forms) in
  let ambiguous = ref [] in
  Array.iteri
    (fun id d ->
      match d with
      | None -> ()
      | Some _ ->
        let k = key forms.(id) in
        (match Hashtbl.find_opt slots k with
         | None -> Hashtbl.add slots k id
         | Some id0 when descs.(id0) = d -> ()
         | Some id0 -> ambiguous := (id0, id) :: !ambiguous))
    descs;
  List.iter (fun (_, id) -> Hashtbl.remove slots (key forms.(id))) !ambiguous;
  { descs;
    slots;
    ambiguous = !ambiguous;
    elim_zero = Db.eliminated_desc cfg ~zero_idiom:true;
    elim_plain = Db.eliminated_desc cfg ~zero_idiom:false }

(* One table per arch, built on first use and published through an
   atomic cell (this library sits below Facile_core, so no
   Sync.with_lock here — and none is needed).  Two domains racing on a
   cold arch may both build; the build is pure and deterministic from
   the same Db source, so the CAS loser discards an identical table
   and adopts the published one.  That duplicate work happens at most
   once per arch per process, a fair price for a lock-free read path. *)
let tables : table option Atomic.t array =
  Array.init n_arches (fun _ -> Atomic.make None)

let table cfg =
  let ai = arch_index cfg.Config.arch in
  match Atomic.get tables.(ai) with
  | Some t -> t
  | None ->
    let t = build canonical.(ai) in
    if Atomic.compare_and_set tables.(ai) None (Some t) then t
    else Option.get (Atomic.get tables.(ai))

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)

(* Ids reported by [id_of] for shapes resolved before the table:
   rename-eliminated cases are decided per call (they depend on exact
   register identities the key deliberately ignores). *)
let id_fallback = -1
let id_zero_idiom = -2
let id_nop = -3
let id_mov_elim = -4

let id_of cfg (i : Inst.t) =
  if not (is_canonical cfg) then id_fallback
  else if Db.is_zero_idiom i then id_zero_idiom
  else if i.Inst.mnem = Inst.NOP || i.Inst.mnem = Inst.NOPL then id_nop
  else if Db.is_reg_move_elimination cfg i then id_mov_elim
  else
    let t = table cfg in
    match Hashtbl.find t.slots (key i) with
    | id -> id
    | exception Not_found -> id_fallback

(* The hot describe: preamble in the same order as [Db.describe]
   (support gate, then the rename-eliminated cases), then the O(1)
   table hit.  Allocation-free on hits: the returned descriptor is the
   table's shared view. *)
let describe cfg (i : Inst.t) : Db.t =
  Db.check_supported cfg i;
  if Db.is_zero_idiom i then
    if is_canonical cfg then (table cfg).elim_zero
    else Db.eliminated_desc cfg ~zero_idiom:true
  else if i.Inst.mnem = Inst.NOP || i.Inst.mnem = Inst.NOPL
          || Db.is_reg_move_elimination cfg i
  then
    if is_canonical cfg then (table cfg).elim_plain
    else Db.eliminated_desc cfg ~zero_idiom:false
  else if not (is_canonical cfg) then Db.describe cfg i
  else
    let t = table cfg in
    match Hashtbl.find t.slots (key i) with
    | id ->
      (match t.descs.(id) with
       | Some d -> d
       | None -> Db.describe cfg i)
    | exception Not_found -> Db.describe cfg i
