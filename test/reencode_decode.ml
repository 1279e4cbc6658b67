(* The reference the differential tests compare [Decode] against: the
   decoder as it was before it enforced canonical form itself.  It
   decodes leniently, then re-encodes the whole block with [Encode]
   and accepts only if the bytes come back unchanged. *)

open Facile_x86

(* raised as the live decoder's exception, so either decoder can stand
   in for the other *)
exception Decode_error = Decode.Decode_error

type cursor = { data : string; mutable pos : int; start : int }

let fail c msg = raise (Decode_error (msg, c.start))

let byte c =
  if c.pos >= String.length c.data then fail c "truncated instruction";
  let b = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  b

let peek c =
  if c.pos >= String.length c.data then fail c "truncated instruction";
  Char.code c.data.[c.pos]

(* Read an n-byte little-endian immediate, sign-extended to 64 bits
   (except n = 8, which is read in full). *)
let imm_le c n =
  let v = ref 0L in
  for k = 0 to n - 1 do
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (byte c)) (8 * k))
  done;
  if n = 8 then !v
  else
    let shift = 64 - (8 * n) in
    Int64.shift_right (Int64.shift_left !v shift) shift

let width_of_bytes = function
  | 1 -> Register.W8 | 2 -> Register.W16 | 4 -> Register.W32
  | 8 -> Register.W64
  | _ -> invalid_arg "width_of_bytes"

let gr w n = Operand.Reg (Register.Gpr (width_of_bytes w, Register.gpr_of_index n))

type rm = RmReg of int | RmMem of Operand.mem

(* Parse ModRM (+ SIB + displacement); the memory width is fixed up by
   the caller once the operand size is known. *)
let parse_modrm c ~rex_x ~rex_b =
  let m = byte c in
  let md = m lsr 6 in
  let reg3 = (m lsr 3) land 7 in
  let rm3 = m land 7 in
  if md = 3 then (reg3, RmReg (rm3 lor (if rex_b then 8 else 0)))
  else begin
    let base, index, disp32_forced =
      if rm3 = 4 then begin
        let s = byte c in
        let sc = s lsr 6 in
        let idx3 = (s lsr 3) land 7 in
        let base3 = s land 7 in
        let index =
          if idx3 = 4 && not rex_x then None
          else
            let scale =
              match sc with
              | 0 -> Operand.S1 | 1 -> Operand.S2 | 2 -> Operand.S4
              | _ -> Operand.S8
            in
            Some (Register.gpr_of_index (idx3 lor (if rex_x then 8 else 0)), scale)
        in
        let base =
          if base3 = 5 && md = 0 then None
          else Some (Register.gpr_of_index (base3 lor (if rex_b then 8 else 0)))
        in
        (base, index, base3 = 5 && md = 0)
      end
      else begin
        if md = 0 && rm3 = 5 then fail c "RIP-relative addressing unsupported";
        (Some (Register.gpr_of_index (rm3 lor (if rex_b then 8 else 0))), None, false)
      end
    in
    let disp =
      if md = 1 then Int64.to_int (imm_le c 1)
      else if md = 2 || disp32_forced then Int64.to_int (imm_le c 4)
      else 0
    in
    (reg3, RmMem { Operand.base; index; disp; width = 0 })
  end

let rm_operand ~width = function
  | RmReg n -> gr width n
  | RmMem m -> Operand.Mem { m with Operand.width }

let rm_xmm_operand ~mem_width ~ymm = function
  | RmReg n -> Operand.Reg (if ymm then Register.Ymm n else Register.Xmm n)
  | RmMem m -> Operand.Mem { m with Operand.width = mem_width }

let alu_of_idx = function
  | 0 -> Inst.ADD | 1 -> Inst.OR | 2 -> Inst.ADC | 3 -> Inst.SBB
  | 4 -> Inst.AND | 5 -> Inst.SUB | 6 -> Inst.XOR | _ -> Inst.CMP

let shift_of_digit c = function
  | 0 -> Inst.ROL | 1 -> Inst.ROR | 4 -> Inst.SHL | 5 -> Inst.SHR
  | 7 -> Inst.SAR
  | _ -> fail c "unsupported shift-group digit"

let cl_reg = Operand.Reg (Register.Gpr (Register.W8, Register.RCX))

(* ------------------------------------------------------------------ *)

let decode_sse c ~p66 ~pf2 ~pf3 ~rex ~map =
  let rex_w = rex land 8 <> 0 in
  let rex_r = rex land 4 <> 0 in
  let rex_x = rex land 2 <> 0 in
  let rex_b = rex land 1 <> 0 in
  let pp_key =
    if pf2 then Sse_table.PF2
    else if pf3 then Sse_table.PF3
    else if p66 then Sse_table.P66
    else Sse_table.PNone
  in
  let op = byte c in
  let candidates =
    List.filter
      (fun e -> e.Sse_table.pp = pp_key && e.Sse_table.map = map
                && e.Sse_table.op = op)
      Sse_table.entries
  in
  if candidates = [] then fail c "unknown SSE opcode";
  let reg3, rm = parse_modrm c ~rex_x ~rex_b in
  let entry =
    match candidates with
    | [ e ] -> e
    | _ ->
      (* opcode groups (PSLLD / PSRLD): select by the /digit field *)
      (match
         List.find_opt
           (fun e -> match e.Sse_table.kind with
              | Sse_table.Grp_imm8 d -> d = reg3
              | _ -> false)
           candidates
       with
       | Some e -> e
       | None -> fail c "unknown opcode-group digit")
  in
  let regn = reg3 lor (if rex_r then 8 else 0) in
  (* 66 0F 6E/7E encode MOVD (W = 0) and MOVQ (W = 1). *)
  let mnem =
    if entry.Sse_table.mnem = Inst.MOVD && rex_w then Inst.MOVQ
    else entry.Sse_table.mnem
  in
  let mem_width = Inst.vec_mem_width ~w:rex_w ~ymm:false mnem in
  let xrm = rm_xmm_operand ~mem_width ~ymm:false rm in
  let gw = if rex_w then 8 else 4 in
  (* shuffle-control and shift-count immediates are unsigned bytes *)
  let uimm8 () = Int64.of_int (byte c) in
  match entry.Sse_table.kind with
  | Sse_table.Xx -> Inst.make mnem [ Operand.Reg (Register.Xmm regn); xrm ]
  | Sse_table.Xx_store -> Inst.make mnem [ xrm; Operand.Reg (Register.Xmm regn) ]
  | Sse_table.Xx_imm8 ->
    let v = uimm8 () in
    Inst.make mnem [ Operand.Reg (Register.Xmm regn); xrm; Operand.Imm v ]
  | Sse_table.Grp_imm8 _ ->
    let v = uimm8 () in
    (match rm with
     | RmReg n -> Inst.make mnem [ Operand.Reg (Register.Xmm n); Operand.Imm v ]
     | RmMem _ -> fail c "memory operand in vector shift group")
  | Sse_table.X_gpr ->
    let src = rm_operand ~width:gw rm in
    Inst.make mnem [ Operand.Reg (Register.Xmm regn); src ]
  | Sse_table.Gpr_x ->
    Inst.make mnem [ gr gw regn; xrm ]
  | Sse_table.Gpr_store ->
    let dst = rm_operand ~width:gw rm in
    Inst.make mnem [ dst; Operand.Reg (Register.Xmm regn) ]

let decode_0f c ~p66 ~pf2 ~pf3 ~rex =
  let rex_w = rex land 8 <> 0 in
  let rex_r = rex land 4 <> 0 in
  let rex_x = rex land 2 <> 0 in
  let rex_b = rex land 1 <> 0 in
  let ew = if rex_w then 8 else if p66 then 2 else 4 in
  let modrm () = parse_modrm c ~rex_x ~rex_b in
  let regn reg3 = reg3 lor (if rex_r then 8 else 0) in
  let op2 = peek c in
  if op2 = 0x38 then begin
    let _ = byte c in
    let op3 = peek c in
    if op3 = 0xF0 || op3 = 0xF1 then begin
      let _ = byte c in
      let reg3, rm = modrm () in
      let r = gr ew (regn reg3) in
      let m = rm_operand ~width:ew rm in
      Inst.make Inst.MOVBE (if op3 = 0xF0 then [ r; m ] else [ m; r ])
    end
    else decode_sse c ~p66 ~pf2 ~pf3 ~rex ~map:Sse_table.M0F38
  end
  else if op2 = 0x3A then begin
    let _ = byte c in
    decode_sse c ~p66 ~pf2 ~pf3 ~rex ~map:Sse_table.M0F3A
  end
  else
    match op2 with
    | 0x1F ->
      let _ = byte c in
      let _, rm = modrm () in
      Inst.make Inst.NOPL [ rm_operand ~width:(if p66 then 2 else 4) rm ]
    | 0xAF ->
      let _ = byte c in
      let reg3, rm = modrm () in
      Inst.make Inst.IMUL [ gr ew (regn reg3); rm_operand ~width:ew rm ]
    | 0xB6 | 0xB7 | 0xBE | 0xBF when not pf3 ->
      let o = byte c in
      let mnem = if o < 0xBE then Inst.MOVZX else Inst.MOVSX in
      let srcw = if o land 1 = 0 then 1 else 2 in
      let reg3, rm = modrm () in
      Inst.make mnem [ gr ew (regn reg3); rm_operand ~width:srcw rm ]
    | 0xB8 when pf3 ->
      let _ = byte c in
      let reg3, rm = modrm () in
      Inst.make Inst.POPCNT [ gr ew (regn reg3); rm_operand ~width:ew rm ]
    | 0xBC | 0xBD when pf3 ->
      let o = byte c in
      let mnem = if o = 0xBC then Inst.TZCNT else Inst.LZCNT in
      let reg3, rm = modrm () in
      Inst.make mnem [ gr ew (regn reg3); rm_operand ~width:ew rm ]
    | 0xBC | 0xBD ->
      let o = byte c in
      let mnem = if o = 0xBC then Inst.BSF else Inst.BSR in
      let reg3, rm = modrm () in
      Inst.make mnem [ gr ew (regn reg3); rm_operand ~width:ew rm ]
    | 0xA3 | 0xAB | 0xB3 | 0xBB ->
      let o = byte c in
      let mnem = (match o with
                  | 0xA3 -> Inst.BT | 0xAB -> Inst.BTS | 0xB3 -> Inst.BTR
                  | _ -> Inst.BTC) in
      let reg3, rm = modrm () in
      Inst.make mnem [ rm_operand ~width:ew rm; gr ew (regn reg3) ]
    | 0xA4 | 0xAC ->
      let o = byte c in
      let mnem = if o = 0xA4 then Inst.SHLD else Inst.SHRD in
      let reg3, rm = modrm () in
      let v = imm_le c 1 in
      Inst.make mnem
        [ rm_operand ~width:ew rm; gr ew (regn reg3); Operand.Imm v ]
    | 0xBA ->
      let _ = byte c in
      let ext, rm = modrm () in
      let mnem = (match ext with
                  | 4 -> Inst.BT | 5 -> Inst.BTS | 6 -> Inst.BTR
                  | 7 -> Inst.BTC
                  | _ -> fail c "unsupported 0F BA group digit") in
      let v = imm_le c 1 in
      Inst.make mnem [ rm_operand ~width:ew rm; Operand.Imm v ]
    | _ when op2 >= 0x40 && op2 <= 0x4F ->
      let o = byte c in
      let reg3, rm = modrm () in
      Inst.make (Inst.CMOVcc (Inst.cond_of_code (o land 0xF)))
        [ gr ew (regn reg3); rm_operand ~width:ew rm ]
    | _ when op2 >= 0x80 && op2 <= 0x8F ->
      let o = byte c in
      let v = imm_le c 4 in
      Inst.make (Inst.Jcc (Inst.cond_of_code (o land 0xF))) [ Operand.Imm v ]
    | _ when op2 >= 0x90 && op2 <= 0x9F ->
      let o = byte c in
      let _, rm = modrm () in
      Inst.make (Inst.SETcc (Inst.cond_of_code (o land 0xF)))
        [ rm_operand ~width:1 rm ]
    | _ when op2 >= 0xC8 && op2 <= 0xCF ->
      let o = byte c in
      let w = if rex_w then 8 else 4 in
      Inst.make Inst.BSWAP [ gr w ((o land 7) lor (if rex_b then 8 else 0)) ]
    | _ -> decode_sse c ~p66 ~pf2 ~pf3 ~rex ~map:Sse_table.M0F

let decode_vex c =
  let v0 = byte c in
  let r, x, b, map, w, vvvv, l, pp =
    if v0 = 0xC5 then begin
      let b2 = byte c in
      (b2 land 0x80 = 0, false, false, 1, false,
       lnot (b2 lsr 3) land 0xF, b2 land 4 <> 0, b2 land 3)
    end
    else begin
      let b2 = byte c in
      let b3 = byte c in
      (b2 land 0x80 = 0, b2 land 0x40 = 0, b2 land 0x20 = 0,
       b2 land 0x1F, b3 land 0x80 <> 0,
       lnot (b3 lsr 3) land 0xF, b3 land 4 <> 0, b3 land 3)
    end
  in
  let op = byte c in
  match Sse_table.vfind_by_opcode ~pp ~map ~op ~w with
  | None -> fail c "unknown VEX opcode"
  | Some e ->
    let reg3, rm = parse_modrm c ~rex_x:x ~rex_b:b in
    let regn = reg3 lor (if r then 8 else 0) in
    let vreg n =
      Operand.Reg (if l then Register.Ymm n else Register.Xmm n)
    in
    let mem_width = Inst.vec_mem_width ~w ~ymm:l e.Sse_table.vmnem in
    let xrm = rm_xmm_operand ~mem_width ~ymm:l rm in
    let gw = if w then 8 else 4 in
    (match e.Sse_table.vkind with
     | Sse_table.Vrm ->
       if vvvv <> 0 then fail c "VEX.vvvv must be 1111 for 2-operand form";
       Inst.make e.Sse_table.vmnem [ vreg regn; xrm ]
     | Sse_table.Vrm_store ->
       if vvvv <> 0 then fail c "VEX.vvvv must be 1111 for 2-operand form";
       Inst.make e.Sse_table.vmnem [ xrm; vreg regn ]
     | Sse_table.Vrvm ->
       Inst.make e.Sse_table.vmnem [ vreg regn; vreg vvvv; xrm ]
     | Sse_table.Vgpr_rvm ->
       Inst.make e.Sse_table.vmnem
         [ gr gw regn; gr gw vvvv; rm_operand ~width:gw rm ]
     | Sse_table.Vgpr_rmv ->
       Inst.make e.Sse_table.vmnem
         [ gr gw regn; rm_operand ~width:gw rm; gr gw vvvv ])

let decode_primary c ~p66 ~pf2 ~pf3 ~rex =
  let rex_w = rex land 8 <> 0 in
  let rex_r = rex land 4 <> 0 in
  let rex_x = rex land 2 <> 0 in
  let rex_b = rex land 1 <> 0 in
  let ew = if rex_w then 8 else if p66 then 2 else 4 in
  let modrm () = parse_modrm c ~rex_x ~rex_b in
  let regn reg3 = reg3 lor (if rex_r then 8 else 0) in
  let full_imm_size = if ew = 2 then 2 else 4 in
  let op = byte c in
  if op = 0x0F then decode_0f c ~p66 ~pf2 ~pf3 ~rex
  else if op < 0x40 && op land 7 <= 3 then begin
    let mnem = alu_of_idx (op lsr 3) in
    let w = if op land 1 = 0 then 1 else ew in
    let dir = op land 2 <> 0 in
    let reg3, rm = modrm () in
    let r = gr w (regn reg3) in
    let m = rm_operand ~width:w rm in
    Inst.make mnem (if dir then [ r; m ] else [ m; r ])
  end
  else if op >= 0x50 && op <= 0x57 then
    Inst.make Inst.PUSH [ gr 8 ((op land 7) lor (if rex_b then 8 else 0)) ]
  else if op >= 0x58 && op <= 0x5F then
    Inst.make Inst.POP [ gr 8 ((op land 7) lor (if rex_b then 8 else 0)) ]
  else if op >= 0x70 && op <= 0x7F then
    let v = imm_le c 1 in
    Inst.make (Inst.Jcc (Inst.cond_of_code (op land 0xF))) [ Operand.Imm v ]
  else if op >= 0xB0 && op <= 0xB7 then
    let n = (op land 7) lor (if rex_b then 8 else 0) in
    let v = imm_le c 1 in
    Inst.make Inst.MOV [ gr 1 n; Operand.Imm v ]
  else if op >= 0xB8 && op <= 0xBF then begin
    let n = (op land 7) lor (if rex_b then 8 else 0) in
    let isz = if rex_w then 8 else if p66 then 2 else 4 in
    let v = imm_le c isz in
    Inst.make Inst.MOV [ gr ew n; Operand.Imm v ]
  end
  else
    match op with
    | 0x63 ->
      let reg3, rm = modrm () in
      Inst.make Inst.MOVSXD [ gr 8 (regn reg3); rm_operand ~width:4 rm ]
    | 0x69 | 0x6B ->
      let reg3, rm = modrm () in
      let isz = if op = 0x6B then 1 else full_imm_size in
      let v = imm_le c isz in
      Inst.make Inst.IMUL
        [ gr ew (regn reg3); rm_operand ~width:ew rm; Operand.Imm v ]
    | 0x80 | 0x81 | 0x83 ->
      let ext, rm = modrm () in
      let w = if op = 0x80 then 1 else ew in
      let isz = if op = 0x81 then full_imm_size else 1 in
      let v = imm_le c isz in
      Inst.make (alu_of_idx ext) [ rm_operand ~width:w rm; Operand.Imm v ]
    | 0x84 | 0x85 ->
      let reg3, rm = modrm () in
      let w = if op = 0x84 then 1 else ew in
      Inst.make Inst.TEST [ rm_operand ~width:w rm; gr w (regn reg3) ]
    | 0x86 | 0x87 ->
      let reg3, rm = modrm () in
      let w = if op = 0x86 then 1 else ew in
      Inst.make Inst.XCHG [ rm_operand ~width:w rm; gr w (regn reg3) ]
    | 0x88 | 0x89 ->
      let reg3, rm = modrm () in
      let w = if op = 0x88 then 1 else ew in
      Inst.make Inst.MOV [ rm_operand ~width:w rm; gr w (regn reg3) ]
    | 0x8A | 0x8B ->
      let reg3, rm = modrm () in
      let w = if op = 0x8A then 1 else ew in
      Inst.make Inst.MOV [ gr w (regn reg3); rm_operand ~width:w rm ]
    | 0x8D ->
      let reg3, rm = modrm () in
      (match rm with
       | RmMem _ ->
         Inst.make Inst.LEA [ gr ew (regn reg3); rm_operand ~width:ew rm ]
       | RmReg _ -> fail c "LEA with register source")
    | 0x90 -> Inst.make Inst.NOP []
    | 0x98 -> Inst.make (if rex_w then Inst.CDQE else Inst.CWDE) []
    | 0x99 -> Inst.make (if rex_w then Inst.CQO else Inst.CDQ) []
    | 0xF5 -> Inst.make Inst.CMC []
    | 0xF8 -> Inst.make Inst.CLC []
    | 0xF9 -> Inst.make Inst.STC []
    | 0xC0 | 0xC1 ->
      let ext, rm = modrm () in
      let w = if op = 0xC0 then 1 else ew in
      let v = imm_le c 1 in
      Inst.make (shift_of_digit c ext) [ rm_operand ~width:w rm; Operand.Imm v ]
    | 0xD2 | 0xD3 ->
      let ext, rm = modrm () in
      let w = if op = 0xD2 then 1 else ew in
      Inst.make (shift_of_digit c ext) [ rm_operand ~width:w rm; cl_reg ]
    | 0xC6 | 0xC7 ->
      let ext, rm = modrm () in
      if ext <> 0 then fail c "unsupported C6/C7 group digit";
      let w = if op = 0xC6 then 1 else ew in
      let isz = if w = 1 then 1 else full_imm_size in
      let v = imm_le c isz in
      Inst.make Inst.MOV [ rm_operand ~width:w rm; Operand.Imm v ]
    | 0xE9 ->
      let v = imm_le c 4 in
      Inst.make Inst.JMP [ Operand.Imm v ]
    | 0xEB ->
      let v = imm_le c 1 in
      Inst.make Inst.JMP [ Operand.Imm v ]
    | 0xF6 | 0xF7 ->
      let ext, rm = modrm () in
      let w = if op = 0xF6 then 1 else ew in
      (match ext with
       | 0 ->
         let isz = if w = 1 then 1 else full_imm_size in
         let v = imm_le c isz in
         Inst.make Inst.TEST [ rm_operand ~width:w rm; Operand.Imm v ]
       | 2 -> Inst.make Inst.NOT [ rm_operand ~width:w rm ]
       | 3 -> Inst.make Inst.NEG [ rm_operand ~width:w rm ]
       | 4 -> Inst.make Inst.MUL [ rm_operand ~width:w rm ]
       | 6 -> Inst.make Inst.DIV [ rm_operand ~width:w rm ]
       | 7 -> Inst.make Inst.IDIV [ rm_operand ~width:w rm ]
       | _ -> fail c "unsupported F6/F7 group digit")
    | 0xFE | 0xFF ->
      let ext, rm = modrm () in
      let w = if op = 0xFE then 1 else ew in
      (match ext with
       | 0 -> Inst.make Inst.INC [ rm_operand ~width:w rm ]
       | 1 -> Inst.make Inst.DEC [ rm_operand ~width:w rm ]
       | _ -> fail c "unsupported FE/FF group digit")
    | _ -> fail c (Printf.sprintf "unknown opcode 0x%02X" op)

let decode_one data ~pos =
  let c = { data; pos; start = pos } in
  (* legacy prefixes, then an optional REX, then the opcode *)
  let p66 = ref false and pf2 = ref false and pf3 = ref false in
  let rec legacy () =
    match peek c with
    | 0x66 -> p66 := true; c.pos <- c.pos + 1; legacy ()
    | 0xF2 -> pf2 := true; c.pos <- c.pos + 1; legacy ()
    | 0xF3 -> pf3 := true; c.pos <- c.pos + 1; legacy ()
    | _ -> ()
  in
  legacy ();
  let rex =
    let b = peek c in
    if b >= 0x40 && b <= 0x4F then begin
      c.pos <- c.pos + 1;
      b land 0xF
    end
    else 0
  in
  let inst =
    let b = peek c in
    if (b = 0xC4 || b = 0xC5) && not (!p66 || !pf2 || !pf3) && rex = 0 then
      decode_vex c
    else decode_primary c ~p66:!p66 ~pf2:!pf2 ~pf3:!pf3 ~rex
  in
  (inst, c.pos - pos)

let instructions data =
  let rec go pos acc =
    if pos >= String.length data then List.rev acc
    else
      let inst, len = decode_one data ~pos in
      go (pos + len) (inst :: acc)
  in
  go 0 []

let decode_block data =
  let insts = instructions data in
  let bytes, layouts = Encode.encode_block insts in
  if bytes <> data then
    raise (Decode_error ("re-encoding mismatch (non-canonical input)", 0));
  layouts

(* The lenient decode alone, with layouts read off the bytes: it
   accepts every spelling the parser understands.  A stand-in for a
   decoder that has lost its canonical-form check. *)
let decode_block_lenient data =
  let is_legacy i =
    i < String.length data
    && (match data.[i] with '\x66' | '\xF2' | '\xF3' -> true | _ -> false)
  in
  let rec opcode_at i =
    if is_legacy i then opcode_at (i + 1)
    else if i < String.length data && Char.code data.[i] land 0xF0 = 0x40
    then i + 1
    else i
  in
  let rec go pos acc =
    if pos >= String.length data then List.rev acc
    else
      let inst, len = decode_one data ~pos in
      go (pos + len)
        ({ Encode.inst; off = pos; len; nominal_opcode_off = opcode_at pos;
           lcp = false }
         :: acc)
  in
  go 0 []
