(* One pass per instruction: the layout is read off the bytes as they
   are parsed, and the encoder's spelling is enforced on the way, so no
   instruction is ever re-encoded.  [flag] records which prefix, REX
   and VEX bits the decoding consults; [decode_inst] then refuses any
   bit the bytes set that nothing consulted, and a REX byte that is
   missing or not needed.  The shorter forms the encoder prefers are
   checked where each is parsed ([noncanonical]). *)

exception Decode_error of string * int

(* Prefix, REX and VEX bits, as one mask.  W/R/X/B keep their REX
   positions (VEX stores the same four, R/X/B inverted); VEX.L and the
   three legacy prefixes sit above them. *)
let bit_b = 1
let bit_x = 2
let bit_r = 4
let bit_w = 8
let bit_l = 16
let bit_66 = 32
let bit_f2 = 64
let bit_f3 = 128

type cursor = {
  data : string;
  mutable pos : int;
  mutable start : int;  (* offset of the instruction being decoded *)
  mutable opcode : int;  (* offset of its nominal opcode *)
  mutable present : int;  (* bits the instruction's bytes set *)
  mutable used : int;  (* bits its decoding consulted *)
  mutable rex : bool;  (* a REX byte precedes the opcode *)
  mutable low_byte_reg : bool;  (* SPL, BPL, SIL or DIL is an operand *)
  mutable lcp : bool;  (* a 16-bit immediate was read *)
  (* the ModRM fields, as [modrm] leaves them *)
  mutable reg3 : int;  (* the raw reg field *)
  mutable rm_reg : int;  (* the r/m register, or -1 for memory *)
  mutable base : Register.gpr option;
  mutable index : (Register.gpr * Operand.scale) option;
  mutable disp : int;
}

let fail c msg = raise (Decode_error (msg, c.start))

let noncanonical c what = fail c ("non-canonical encoding: " ^ what)

(* [flag c bit] reads one prefix bit and records that decoding used it:
   a bit the bytes set but no [flag] consulted is rejected at the end. *)
let flag c bit =
  c.used <- c.used lor bit;
  c.present land bit <> 0

let ext c bit = if flag c bit then 8 else 0

let peek c =
  if c.pos >= String.length c.data then fail c "truncated instruction";
  Char.code (String.unsafe_get c.data c.pos)

let byte c =
  let b = peek c in
  c.pos <- c.pos + 1;
  b

(* An n-byte little-endian immediate (n = 1, 2 or 4), sign-extended.
   Only a 66H-sized operand has a 16-bit immediate: that is the
   length-changing prefix. *)
let imm c n =
  let p = c.pos in
  if p + n > String.length c.data then fail c "truncated instruction";
  c.pos <- p + n;
  match n with
  | 1 -> String.get_int8 c.data p
  | 2 -> c.lcp <- true; String.get_int16_le c.data p
  | _ -> Int32.to_int (String.get_int32_le c.data p)

let imm64 c =
  let p = c.pos in
  if p + 8 > String.length c.data then fail c "truncated instruction";
  c.pos <- p + 8;
  String.get_int64_le c.data p

let fits8 v = v >= -128 && v <= 127

let operand_imm v = Operand.Imm (Int64.of_int v)

(* shuffle-control and shift-count immediates are unsigned bytes *)
let uimm8 c = Operand.Imm (Int64.of_int (byte c))

(* ------------------------------------------------------------------ *)
(* Operands.  Registers are shared, preallocated values.              *)

let width_index = function 1 -> 0 | 2 -> 1 | 4 -> 2 | _ -> 3

let gpr_ops =
  let widths = [| Register.W8; Register.W16; Register.W32; Register.W64 |] in
  Array.init 64 (fun k ->
      Operand.Reg
        (Register.Gpr (widths.(k / 16), Register.gpr_of_index (k mod 16))))

let xmm_ops = Array.init 16 (fun n -> Operand.Reg (Register.Xmm n))
let ymm_ops = Array.init 16 (fun n -> Operand.Reg (Register.Ymm n))
let some_gpr = Array.init 16 (fun n -> Some (Register.gpr_of_index n))

let some_index =
  let scales = [| Operand.S1; Operand.S2; Operand.S4; Operand.S8 |] in
  Array.init 64 (fun k ->
      Some (Register.gpr_of_index (k lsr 2), scales.(k land 3)))

(* The low byte of RSP, RBP, RSI or RDI is only addressable with a REX
   byte; without one the same numbers name AH..BH, which are not
   modelled. *)
let gpr c w n =
  if w = 1 && n >= 4 && n < 8 then c.low_byte_reg <- true;
  gpr_ops.((width_index w * 16) + n)

let vreg ~ymm n = if ymm then ymm_ops.(n) else xmm_ops.(n)

(* the ModRM reg field as a register number *)
let regn c = c.reg3 lor ext c bit_r

let reg c w = gpr c w (regn c)

let mem c width =
  Operand.Mem { Operand.base = c.base; index = c.index; disp = c.disp; width }

let rm c w = if c.rm_reg >= 0 then gpr c w c.rm_reg else mem c w

let rm_vec c ~ymm ~width =
  if c.rm_reg >= 0 then vreg ~ymm c.rm_reg else mem c width

let reversed c =
  noncanonical c "register operands in the reverse direction"

(* Parse ModRM, SIB and displacement into the cursor, rejecting every
   addressing form the encoder spells differently: a SIB byte where
   ModRM alone suffices, scale bits without an index, and a
   displacement longer than it needs to be. *)
let modrm c =
  let m = byte c in
  let md = m lsr 6 and rm3 = m land 7 in
  c.reg3 <- (m lsr 3) land 7;
  if md = 3 then c.rm_reg <- rm3 lor ext c bit_b
  else begin
    c.rm_reg <- -1;
    let base3 =
      if rm3 <> 4 then begin
        if md = 0 && rm3 = 5 then fail c "RIP-relative addressing unsupported";
        c.index <- None;
        rm3
      end
      else begin
        let s = byte c in
        let idx = ((s lsr 3) land 7) lor ext c bit_x in
        if idx = 4 then begin
          if s lsr 6 <> 0 then noncanonical c "scale without an index";
          (* without an index, only an RSP/R12 base or none needs SIB *)
          if s land 7 <> 4 && not (s land 7 = 5 && md = 0) then
            noncanonical c "unneeded SIB byte";
          c.index <- None
        end
        else c.index <- some_index.((idx lsl 2) lor (s lsr 6));
        s land 7
      end
    in
    if md = 0 && base3 = 5 then begin
      (* SIB with no base: a 32-bit absolute displacement *)
      c.base <- None;
      c.disp <- imm c 4
    end
    else begin
      c.base <- some_gpr.(base3 lor ext c bit_b);
      c.disp <- (if md = 1 then imm c 1 else if md = 2 then imm c 4 else 0);
      (* [rbp]/[r13] have no mod-00 form, so they keep a zero disp8 *)
      let shortest =
        if c.disp = 0 && base3 <> 5 then 0 else if fits8 c.disp then 1 else 2
      in
      if md <> shortest then noncanonical c "displacement longer than needed"
    end
  end

let alu_of_idx = function
  | 0 -> Inst.ADD | 1 -> Inst.OR | 2 -> Inst.ADC | 3 -> Inst.SBB
  | 4 -> Inst.AND | 5 -> Inst.SUB | 6 -> Inst.XOR | _ -> Inst.CMP

let shift_of_digit c = function
  | 0 -> Inst.ROL | 1 -> Inst.ROR | 4 -> Inst.SHL | 5 -> Inst.SHR
  | 7 -> Inst.SAR
  | _ -> fail c "unsupported shift-group digit"

let cl_reg = Operand.Reg (Register.Gpr (Register.W8, Register.RCX))

let jcc = Array.init 16 (fun n -> Inst.Jcc (Inst.cond_of_code n))
let setcc = Array.init 16 (fun n -> Inst.SETcc (Inst.cond_of_code n))
let cmovcc = Array.init 16 (fun n -> Inst.CMOVcc (Inst.cond_of_code n))

(* Operand size of an integer instruction: 64 bits with REX.W, else 16
   with 66H, else 32.  66H is only consulted when W is clear. *)
let osize c = if flag c bit_w then 8 else if flag c bit_66 then 2 else 4

(* the immediate of a full-size (not imm8) form *)
let full_imm w = if w = 2 then 2 else 4

(* ------------------------------------------------------------------ *)
(* Opcode tables, indexed once at startup.                            *)

let pp_index = function
  | Sse_table.PNone -> 0 | Sse_table.P66 -> 1 | Sse_table.PF2 -> 2
  | Sse_table.PF3 -> 3

let map_index = function
  | Sse_table.M0F -> 0 | Sse_table.M0F38 -> 1 | Sse_table.M0F3A -> 2

let sse_key pp map op = (((pp_index pp * 3) + map_index map) lsl 8) lor op

(* every SSE entry under its (prefix, map, opcode) key, in table order *)
let sse_by_key =
  let t = Array.make (12 * 256) [] in
  List.iter
    (fun (e : Sse_table.entry) ->
      let k = sse_key e.pp e.map e.op in
      t.(k) <- t.(k) @ [ e ])
    Sse_table.entries;
  t

let vex_key ~pp ~map ~op = (((pp * 4) + map) lsl 8) lor op

let vex_by_key =
  let t = Array.make (16 * 256) [] in
  List.iter
    (fun (e : Sse_table.ventry) ->
      let k = vex_key ~pp:e.vpp ~map:e.vmap ~op:e.vop in
      t.(k) <- t.(k) @ [ e ])
    Sse_table.ventries;
  t

(* ------------------------------------------------------------------ *)

let group_digit (e : Sse_table.entry) =
  match e.kind with Sse_table.Grp_imm8 d -> Some d | _ -> None

let decode_sse c map op =
  (* the mandatory prefix: F2 over F3 over 66H *)
  let pp =
    if flag c bit_f2 then Sse_table.PF2
    else if flag c bit_f3 then Sse_table.PF3
    else if flag c bit_66 then Sse_table.P66
    else Sse_table.PNone
  in
  let candidates = sse_by_key.(sse_key pp map op) in
  if candidates = [] then fail c "unknown SSE opcode";
  modrm c;
  let entry =
    match candidates with
    | [ e ] when group_digit e = None -> e
    | _ ->
      (* opcode groups (PSLLD / PSRLD): select by the /digit field *)
      (match
         List.find_opt (fun e -> group_digit e = Some c.reg3) candidates
       with
       | Some e -> e
       | None -> fail c "unknown opcode-group digit")
  in
  let xmm_reg () = xmm_ops.(regn c) in
  let xrm () =
    rm_vec c ~ymm:false
      ~width:(Inst.vec_mem_width ~w:false ~ymm:false entry.mnem)
  in
  (* W selects the general-purpose width; 66 0F 6E/7E encode MOVD with
     W = 0 and MOVQ with W = 1, but MOVQ with memory has opcodes of its
     own (F3 0F 7E, 66 0F D6) *)
  let gpr_form () =
    let w = flag c bit_w in
    if entry.mnem = Inst.MOVD && w then begin
      if c.rm_reg < 0 then
        noncanonical c "MOVQ with memory through the MOVD opcode";
      (Inst.MOVQ, 8)
    end
    else (entry.mnem, if w then 8 else 4)
  in
  match entry.kind with
  | Sse_table.Xx -> Inst.make entry.mnem [ xmm_reg (); xrm () ]
  | Sse_table.Xx_store ->
    if c.rm_reg >= 0 then reversed c;
    Inst.make entry.mnem [ xrm (); xmm_reg () ]
  | Sse_table.Xx_imm8 ->
    let v = uimm8 c in
    Inst.make entry.mnem [ xmm_reg (); xrm (); v ]
  | Sse_table.Grp_imm8 _ ->
    if c.rm_reg < 0 then fail c "memory operand in vector shift group";
    let v = uimm8 c in
    Inst.make entry.mnem [ xmm_ops.(c.rm_reg); v ]
  | Sse_table.X_gpr ->
    let mnem, w = gpr_form () in
    Inst.make mnem [ xmm_reg (); rm c w ]
  | Sse_table.Gpr_x ->
    let mnem, w = gpr_form () in
    Inst.make mnem [ reg c w; xrm () ]
  | Sse_table.Gpr_store ->
    let mnem, w = gpr_form () in
    Inst.make mnem [ rm c w; xmm_reg () ]

let decode_0f c =
  let op2 = byte c in
  match op2 with
  | 0x38 ->
    let op3 = byte c in
    if op3 = 0xF0 || op3 = 0xF1 then begin
      let w = osize c in
      modrm c;
      if c.rm_reg >= 0 then fail c "MOVBE with a register operand";
      Inst.make Inst.MOVBE
        (if op3 = 0xF0 then [ reg c w; rm c w ] else [ rm c w; reg c w ])
    end
    else decode_sse c Sse_table.M0F38 op3
  | 0x3A -> decode_sse c Sse_table.M0F3A (byte c)
  | 0x1F ->
    modrm c;
    if c.rm_reg >= 0 then fail c "NOPL with a register operand";
    if c.reg3 <> 0 then noncanonical c "nonzero reg field in NOPL";
    Inst.make Inst.NOPL [ mem c (if flag c bit_66 then 2 else 4) ]
  | 0xAF ->
    let w = osize c in
    modrm c;
    Inst.make Inst.IMUL [ reg c w; rm c w ]
  | (0xB6 | 0xB7 | 0xBE | 0xBF) when not (flag c bit_f3) ->
    let mnem = if op2 < 0xBE then Inst.MOVZX else Inst.MOVSX in
    let srcw = if op2 land 1 = 0 then 1 else 2 in
    let w = osize c in
    modrm c;
    Inst.make mnem [ reg c w; rm c srcw ]
  | 0xB8 when flag c bit_f3 ->
    let w = osize c in
    modrm c;
    Inst.make Inst.POPCNT [ reg c w; rm c w ]
  | 0xBC | 0xBD ->
    let mnem =
      match op2 = 0xBC, flag c bit_f3 with
      | true, true -> Inst.TZCNT | false, true -> Inst.LZCNT
      | true, false -> Inst.BSF | false, false -> Inst.BSR
    in
    let w = osize c in
    modrm c;
    Inst.make mnem [ reg c w; rm c w ]
  | 0xA3 | 0xAB | 0xB3 | 0xBB ->
    let mnem =
      match op2 with
      | 0xA3 -> Inst.BT | 0xAB -> Inst.BTS | 0xB3 -> Inst.BTR | _ -> Inst.BTC
    in
    let w = osize c in
    modrm c;
    Inst.make mnem [ rm c w; reg c w ]
  | 0xA4 | 0xAC ->
    let mnem = if op2 = 0xA4 then Inst.SHLD else Inst.SHRD in
    let w = osize c in
    modrm c;
    let v = operand_imm (imm c 1) in
    Inst.make mnem [ rm c w; reg c w; v ]
  | 0xBA ->
    modrm c;
    let mnem =
      match c.reg3 with
      | 4 -> Inst.BT | 5 -> Inst.BTS | 6 -> Inst.BTR | 7 -> Inst.BTC
      | _ -> fail c "unsupported 0F BA group digit"
    in
    let w = osize c in
    let v = operand_imm (imm c 1) in
    Inst.make mnem [ rm c w; v ]
  | _ when op2 >= 0x40 && op2 <= 0x4F ->
    let w = osize c in
    modrm c;
    Inst.make cmovcc.(op2 land 0xF) [ reg c w; rm c w ]
  | _ when op2 >= 0x80 && op2 <= 0x8F ->
    let v = imm c 4 in
    if fits8 v then noncanonical c "rel32 where rel8 fits";
    Inst.make jcc.(op2 land 0xF) [ operand_imm v ]
  | _ when op2 >= 0x90 && op2 <= 0x9F ->
    modrm c;
    if c.reg3 <> 0 then noncanonical c "nonzero reg field in SETcc";
    Inst.make setcc.(op2 land 0xF) [ rm c 1 ]
  | _ when op2 >= 0xC8 && op2 <= 0xCF ->
    let w = if flag c bit_w then 8 else 4 in
    Inst.make Inst.BSWAP [ gpr c w ((op2 land 7) lor ext c bit_b) ]
  | _ -> decode_sse c Sse_table.M0F op2

let decode_vex c =
  let v0 = byte c in
  let b2 = byte c in
  (* R, X and B are stored inverted *)
  let set bit cond = if cond then c.present <- c.present lor bit in
  set bit_r (b2 land 0x80 = 0);
  let map, last =
    if v0 = 0xC5 then (1, b2)
    else begin
      let b3 = byte c in
      set bit_x (b2 land 0x40 = 0);
      set bit_b (b2 land 0x20 = 0);
      set bit_w (b3 land 0x80 <> 0);
      (b2 land 0x1F, b3)
    end
  in
  set bit_l (last land 4 <> 0);
  let vvvv = lnot (last lsr 3) land 0xF in
  let pp = last land 3 in
  let op = byte c in
  let w = c.present land bit_w <> 0 in
  let entry =
    if map < 1 || map > 3 then None
    else
      List.find_opt
        (fun (e : Sse_table.ventry) ->
          match e.vw with None -> true | Some b -> b = w)
        vex_by_key.(vex_key ~pp ~map ~op)
  in
  match entry with
  | None -> fail c "unknown VEX opcode"
  | Some e ->
    (* an entry that pins W was found by it *)
    if e.vw <> None then ignore (flag c bit_w);
    modrm c;
    (* the 2-byte form carries R, vvvv, L and pp; the encoder takes it
       whenever map, W, X and B allow *)
    if v0 = 0xC4 && map = 1 && c.present land (bit_w lor bit_x lor bit_b) = 0
    then noncanonical c "3-byte VEX where the 2-byte form suffices";
    let xrm ymm = rm_vec c ~ymm ~width:(Inst.vec_mem_width ~w ~ymm e.vmnem) in
    let two_operand () =
      if vvvv <> 0 then fail c "VEX.vvvv must be 1111 for 2-operand form"
    in
    (match e.vkind with
     | Sse_table.Vrm ->
       two_operand ();
       let ymm = flag c bit_l in
       Inst.make e.vmnem [ vreg ~ymm (regn c); xrm ymm ]
     | Sse_table.Vrm_store ->
       two_operand ();
       if c.rm_reg >= 0 then reversed c;
       let ymm = flag c bit_l in
       Inst.make e.vmnem [ xrm ymm; vreg ~ymm (regn c) ]
     | Sse_table.Vrvm ->
       let ymm = flag c bit_l in
       Inst.make e.vmnem [ vreg ~ymm (regn c); vreg ~ymm vvvv; xrm ymm ]
     | Sse_table.Vgpr_rvm ->
       let gw = if flag c bit_w then 8 else 4 in
       Inst.make e.vmnem [ reg c gw; gpr c gw vvvv; rm c gw ]
     | Sse_table.Vgpr_rmv ->
       let gw = if flag c bit_w then 8 else 4 in
       Inst.make e.vmnem [ reg c gw; rm c gw; gpr c gw vvvv ])

let decode_primary c =
  let op = byte c in
  if op = 0x0F then decode_0f c
  else if op < 0x40 && op land 7 <= 3 then begin
    (* ALU r/m, r (direction bit clear) and r, r/m (set) *)
    let mnem = alu_of_idx (op lsr 3) in
    let w = if op land 1 = 0 then 1 else osize c in
    modrm c;
    if op land 2 = 0 then Inst.make mnem [ rm c w; reg c w ]
    else begin
      if c.rm_reg >= 0 then reversed c;
      Inst.make mnem [ reg c w; rm c w ]
    end
  end
  else if op >= 0x50 && op <= 0x5F then
    Inst.make (if op < 0x58 then Inst.PUSH else Inst.POP)
      [ gpr c 8 ((op land 7) lor ext c bit_b) ]
  else if op >= 0x70 && op <= 0x7F then
    Inst.make jcc.(op land 0xF) [ operand_imm (imm c 1) ]
  else if op >= 0xB0 && op <= 0xB7 then begin
    let n = (op land 7) lor ext c bit_b in
    let v = imm c 1 in
    Inst.make Inst.MOV [ gpr c 1 n; operand_imm v ]
  end
  else if op >= 0xB8 && op <= 0xBF then begin
    let n = (op land 7) lor ext c bit_b in
    let w = osize c in
    let v =
      if w < 8 then Int64.of_int (imm c w)
      else begin
        let v = imm64 c in
        if Operand.fits_i32 v then
          noncanonical c "imm64 that fits in 32 bits (C7 /0 is shorter)";
        v
      end
    in
    Inst.make Inst.MOV [ gpr c w n; Operand.Imm v ]
  end
  else
    match op with
    | 0x63 ->
      if not (flag c bit_w) then noncanonical c "MOVSXD without REX.W";
      modrm c;
      Inst.make Inst.MOVSXD [ reg c 8; rm c 4 ]
    | 0x69 | 0x6B ->
      let w = osize c in
      modrm c;
      let v = imm c (if op = 0x6B then 1 else full_imm w) in
      if op = 0x69 && fits8 v then noncanonical c "imm32 where imm8 fits";
      Inst.make Inst.IMUL [ reg c w; rm c w; operand_imm v ]
    | 0x80 | 0x81 | 0x83 ->
      let w = if op = 0x80 then 1 else osize c in
      modrm c;
      let v = imm c (if op = 0x81 then full_imm w else 1) in
      if op = 0x81 && fits8 v then noncanonical c "imm32 where imm8 fits";
      Inst.make (alu_of_idx c.reg3) [ rm c w; operand_imm v ]
    | 0x84 | 0x85 | 0x86 | 0x87 | 0x88 | 0x89 ->
      let mnem =
        if op < 0x86 then Inst.TEST else if op < 0x88 then Inst.XCHG
        else Inst.MOV
      in
      let w = if op land 1 = 0 then 1 else osize c in
      modrm c;
      Inst.make mnem [ rm c w; reg c w ]
    | 0x8A | 0x8B ->
      let w = if op = 0x8A then 1 else osize c in
      modrm c;
      if c.rm_reg >= 0 then reversed c;
      Inst.make Inst.MOV [ reg c w; rm c w ]
    | 0x8D ->
      let w = osize c in
      modrm c;
      if c.rm_reg >= 0 then fail c "LEA with register source";
      Inst.make Inst.LEA [ reg c w; mem c w ]
    | 0x90 -> Inst.make Inst.NOP []
    | 0x98 -> Inst.make (if flag c bit_w then Inst.CDQE else Inst.CWDE) []
    | 0x99 -> Inst.make (if flag c bit_w then Inst.CQO else Inst.CDQ) []
    | 0xF5 -> Inst.make Inst.CMC []
    | 0xF8 -> Inst.make Inst.CLC []
    | 0xF9 -> Inst.make Inst.STC []
    | 0xC0 | 0xC1 ->
      let w = if op = 0xC0 then 1 else osize c in
      modrm c;
      let mnem = shift_of_digit c c.reg3 in
      let v = imm c 1 in
      Inst.make mnem [ rm c w; operand_imm v ]
    | 0xD2 | 0xD3 ->
      let w = if op = 0xD2 then 1 else osize c in
      modrm c;
      Inst.make (shift_of_digit c c.reg3) [ rm c w; cl_reg ]
    | 0xC6 | 0xC7 ->
      let w = if op = 0xC6 then 1 else osize c in
      modrm c;
      if c.reg3 <> 0 then fail c "unsupported C6/C7 group digit";
      (* a register takes B0+r / B8+r, except a 64-bit one whose
         immediate fits 32 bits *)
      if c.rm_reg >= 0 && w < 8 then
        noncanonical c "C6/C7 /0 for a register below 64 bits";
      let v = imm c (if w = 1 then 1 else full_imm w) in
      Inst.make Inst.MOV [ rm c w; operand_imm v ]
    | 0xE9 ->
      let v = imm c 4 in
      if fits8 v then noncanonical c "rel32 where rel8 fits";
      Inst.make Inst.JMP [ operand_imm v ]
    | 0xEB -> Inst.make Inst.JMP [ operand_imm (imm c 1) ]
    | 0xF6 | 0xF7 ->
      let w = if op = 0xF6 then 1 else osize c in
      modrm c;
      (match c.reg3 with
       | 0 ->
         let v = imm c (if w = 1 then 1 else full_imm w) in
         Inst.make Inst.TEST [ rm c w; operand_imm v ]
       | 2 -> Inst.make Inst.NOT [ rm c w ]
       | 3 -> Inst.make Inst.NEG [ rm c w ]
       | 4 -> Inst.make Inst.MUL [ rm c w ]
       | 6 -> Inst.make Inst.DIV [ rm c w ]
       | 7 -> Inst.make Inst.IDIV [ rm c w ]
       | _ -> fail c "unsupported F6/F7 group digit")
    | 0xFE | 0xFF ->
      let w = if op = 0xFE then 1 else osize c in
      modrm c;
      (match c.reg3 with
       | 0 -> Inst.make Inst.INC [ rm c w ]
       | 1 -> Inst.make Inst.DEC [ rm c w ]
       | _ -> fail c "unsupported FE/FF group digit")
    | _ -> fail c (Printf.sprintf "unknown opcode 0x%02X" op)

(* Decode the instruction at [c.pos], leaving its layout in the cursor.
   Prefixes come first: legacy prefixes, each at most once and in the
   order 66H, F2, F3, then an optional REX.  After decoding, every
   prefix, REX or VEX bit the bytes set must have been consulted, and a
   REX byte must be present exactly when it is needed. *)
let decode_inst c =
  c.start <- c.pos;
  c.present <- 0;
  c.used <- 0;
  c.rex <- false;
  c.low_byte_reg <- false;
  c.lcp <- false;
  let rec legacy last =
    let bit =
      match peek c with
      | 0x66 -> bit_66 | 0xF2 -> bit_f2 | 0xF3 -> bit_f3 | _ -> 0
    in
    if bit <> 0 then begin
      if bit <= last then
        noncanonical c "repeated or out-of-order legacy prefix";
      c.present <- c.present lor bit;
      c.pos <- c.pos + 1;
      legacy bit
    end
  in
  legacy 0;
  let b = peek c in
  if b land 0xF0 = 0x40 then begin
    c.rex <- true;
    c.present <- c.present lor (b land 0xF);
    c.pos <- c.pos + 1
  end;
  c.opcode <- c.pos;
  let b = peek c in
  let inst =
    if (b = 0xC4 || b = 0xC5) && c.present = 0 && not c.rex then decode_vex c
    else decode_primary c
  in
  if c.present land lnot c.used <> 0 then
    noncanonical c "a prefix, REX or VEX bit the instruction does not use";
  if c.rex then begin
    if c.present land 0xF = 0 && not c.low_byte_reg then
      noncanonical c "REX prefix not needed"
  end
  else if c.low_byte_reg then
    noncanonical c "SPL, BPL, SIL or DIL without a REX prefix";
  inst

let cursor data pos =
  { data; pos; start = pos; opcode = pos; present = 0; used = 0; rex = false;
    low_byte_reg = false; lcp = false; reg3 = 0; rm_reg = 0; base = None;
    index = None; disp = 0 }

let decode_one data ~pos =
  let c = cursor data pos in
  let inst = decode_inst c in
  (inst, c.pos - pos)

let instructions data =
  let c = cursor data 0 in
  let rec go acc =
    if c.pos >= String.length data then List.rev acc
    else go (decode_inst c :: acc)
  in
  go []

let decode_block data =
  let c = cursor data 0 in
  let rec go acc =
    if c.pos >= String.length data then List.rev acc
    else
      let inst = decode_inst c in
      go
        ({ Encode.inst; off = c.start; len = c.pos - c.start;
           nominal_opcode_off = c.opcode; lcp = c.lcp }
         :: acc)
  in
  go []
