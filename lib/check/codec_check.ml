(* Codec sweep, the codec- rule family: exhaustively encode every
   enumerated form and verify the decoder reconstructs it, the declared
   layout metadata matches the bytes, the prefix/LCP assumptions the
   predecoder component builds on actually hold byte-for-byte, and the
   decoder accepts no other spelling of nearby bytes.

   [?encode] lets mutation self-tests inject a corrupted encoder
   (wrong length, flipped LCP flag) and assert the matching rule
   fires; production runs use [Encode.encode]. *)

open Facile_x86

let error = Finding.error
let where inst = Inst.to_string inst

let is_legacy_prefix b = b = 0x66 || b = 0xF2 || b = 0xF3
let is_rex b = b land 0xF0 = 0x40

(* --- per-instruction checks ---------------------------------------- *)

let check_length inst (e : Encode.encoded) =
  let n = String.length e.bytes in
  (if n >= 1 && n <= 15 then []
   else
     [ error "codec-max-len" (where inst)
         (Printf.sprintf "encoding is %d bytes, outside [1, 15]" n) ])
  @
  if e.opcode_off >= 0 && e.opcode_off < n then []
  else
    [ error "codec-length" (where inst)
        (Printf.sprintf "opcode_off %d outside the %d encoded bytes"
           e.opcode_off n) ]

(* Everything before the nominal opcode must be a legacy prefix or REX,
   and REX (if present) must be the last byte before the opcode — the
   predecoder's length/LCP scan assumes exactly this layout. *)
let check_prefixes inst (e : Encode.encoded) =
  let stop = min e.opcode_off (String.length e.bytes) in
  let bad = ref [] in
  for i = 0 to stop - 1 do
    let b = Char.code e.bytes.[i] in
    if is_rex b then begin
      if i <> stop - 1 then
        bad :=
          error "codec-prefix-layout" (where inst)
            (Printf.sprintf "REX byte %02x at %d is not last before opcode" b
               i)
          :: !bad
    end
    else if not (is_legacy_prefix b) then
      bad :=
        error "codec-prefix-layout" (where inst)
          (Printf.sprintf "byte %02x at %d is not a legacy prefix" b i)
        :: !bad
  done;
  List.rev !bad

(* The LCP flag must agree with the bytes: it may only be set when a
   66H prefix precedes the opcode and the instruction actually carries
   an immediate on a 16-bit operand (the length-changing case). *)
let check_lcp inst (e : Encode.encoded) =
  let has_66 =
    let stop = min e.opcode_off (String.length e.bytes) in
    let rec go i = i < stop && (Char.code e.bytes.[i] = 0x66 || go (i + 1)) in
    go 0
  in
  let has_imm =
    List.exists (function Operand.Imm _ -> true | _ -> false) inst.Inst.ops
  in
  let has_w16 =
    List.exists
      (function
        | Operand.Reg (Register.Gpr (Register.W16, _)) -> true
        | Operand.Mem m -> m.Operand.width = 2
        | _ -> false)
      inst.Inst.ops
  in
  if e.has_lcp && not (has_66 && has_imm && has_w16) then
    [ error "codec-lcp-meta" (where inst)
        "has_lcp set without 66H prefix + immediate + 16-bit operand" ]
  else []

(* Positive control for the LCP flag: these canonical length-changing
   encodings must report [has_lcp]; an encoder that never sets the flag
   silently disables the paper's 3-cycle LCP stall (section 4.3). *)
let lcp_controls =
  let open Inst in
  let ax = Operand.Reg (Register.Gpr (Register.W16, Register.RAX)) in
  [ make ADD [ ax; Operand.imm 0x1234 ];
    make MOV [ ax; Operand.imm 0x1234 ];
    make CMP [ ax; Operand.imm 0x1234 ] ]

let check_lcp_controls encode =
  List.concat_map
    (fun inst ->
      match encode inst with
      | (e : Encode.encoded) when e.has_lcp -> []
      | _ ->
        [ error "codec-lcp-meta" (where inst)
            "known length-changing encoding does not report has_lcp" ]
      | exception Encode.Unencodable msg ->
        [ error "codec-encode" (where inst) msg ])
    lcp_controls

let check_roundtrip inst (e : Encode.encoded) =
  match Decode.decode_one e.bytes ~pos:0 with
  | inst', len ->
    (if Inst.equal inst inst' then []
     else
       [ error "codec-roundtrip" (where inst)
           (Printf.sprintf "decodes as %s" (Inst.to_string inst')) ])
    @
    if len = String.length e.bytes then []
    else
      [ error "codec-length" (where inst)
          (Printf.sprintf "declared %d bytes but decoder consumed %d"
             (String.length e.bytes) len) ]
  | exception Decode.Decode_error (msg, off) ->
    [ error "codec-roundtrip" (where inst)
        (Printf.sprintf "decode failed at %d: %s" off msg) ]

let check_one ?(encode = Encode.encode) inst =
  match encode inst with
  | e ->
    check_length inst e @ check_prefixes inst e @ check_lcp inst e
    @ check_roundtrip inst e
  | exception Encode.Unencodable msg ->
    [ error "codec-encode" (where inst) msg ]

(* --- block-level layout agreement ---------------------------------- *)

let rec chunks n = function
  | [] -> []
  | l ->
    let rec take k = function
      | x :: tl when k > 0 ->
        let a, b = take (k - 1) tl in
        (x :: a, b)
      | rest -> ([], rest)
    in
    let a, b = take n l in
    a :: chunks n b

let layouts_agree (a : Encode.layout) (b : Encode.layout) =
  Inst.equal a.inst b.inst && a.off = b.off && a.len = b.len
  && a.nominal_opcode_off = b.nominal_opcode_off
  && a.lcp = b.lcp

let check_block insts =
  let bytes, enc = Encode.encode_block insts in
  match Decode.decode_block bytes with
  | dec ->
    if List.length enc = List.length dec && List.for_all2 layouts_agree enc dec
    then []
    else
      [ error "codec-block-layout"
          (Printf.sprintf "block[%d insts]" (List.length insts))
          "encode_block and decode_block layouts disagree" ]
  | exception Decode.Decode_error (msg, off) ->
    [ error "codec-block-layout"
        (Printf.sprintf "block[%d insts]" (List.length insts))
        (Printf.sprintf "decode failed at %d: %s" off msg) ]

(* --- canonical form -------------------------------------------------- *)

(* The decoder enforces canonical form itself, without re-encoding, so
   it must accept exactly the bytes the encoder emits.  Every one-byte
   substitution of a form's encoding that [decode] accepts is checked
   against the live encoder: the decoded instructions must re-encode to
   the same bytes and the same layouts.  One finding per form, naming
   its first offending substitution.  [?decode] lets the self-test
   inject a lenient decoder. *)
let reencodes s layouts =
  let insts = List.map (fun (l : Encode.layout) -> l.inst) layouts in
  match Encode.encode_block insts with
  | s', enc ->
    s' = s && List.length enc = List.length layouts
    && List.for_all2 layouts_agree enc layouts
  | exception Encode.Unencodable _ -> false

let check_canonical ?(decode = Decode.decode_block) inst =
  match Encode.encode inst with
  | exception Encode.Unencodable _ -> []  (* reported as codec-encode *)
  | e ->
    let b = Bytes.of_string e.bytes in
    let accepted_non_canonical s =
      match decode s with
      | layouts -> not (reencodes s layouts)
      | exception Decode.Decode_error _ -> false
    in
    let rec scan i v =
      if i = Bytes.length b then None
      else if v > 255 then scan (i + 1) 0
      else if v = Char.code e.bytes.[i] then scan i (v + 1)
      else begin
        Bytes.set b i (Char.chr v);
        let s = Bytes.to_string b in
        Bytes.set b i e.bytes.[i];
        if accepted_non_canonical s then Some s else scan i (v + 1)
      end
    in
    (match scan 0 0 with
     | None -> []
     | Some s ->
       [ error "codec-canonical" (where inst)
           (Printf.sprintf
              "decode_block accepts %s, which does not re-encode to the same \
               bytes and layouts"
              (Hex.encode s)) ])

(* --- opcode-table liveness ----------------------------------------- *)

(* Every SSE/VEX table entry must be reachable by the decoder: the
   first entry matching its key must be the entry itself, or the row is
   dead (shadowed by an earlier row with the same key).  MOVD/MOVQ
   deliberately share 0x6E/0x7E and are distinguished by REX.W, so the
   MOVQ rows for those opcodes are exempt. *)
let shared_movd_movq (e : Sse_table.entry) =
  e.Sse_table.mnem = Inst.MOVQ && (e.Sse_table.op = 0x6E || e.Sse_table.op = 0x7E)

(* Opcode-group rows (shift-by-immediate) share one opcode and are told
   apart by the ModRM /digit, so liveness for them is keyed on the
   digit as well. *)
let same_group_digit (a : Sse_table.entry) (b : Sse_table.entry) =
  match a.Sse_table.kind, b.Sse_table.kind with
  | Sse_table.Grp_imm8 da, Sse_table.Grp_imm8 db -> da = db
  | Sse_table.Grp_imm8 _, _ | _, Sse_table.Grp_imm8 _ -> false
  | _ -> true

let check_dead_entries () =
  let sse =
    List.concat_map
      (fun (e : Sse_table.entry) ->
        let first =
          List.find_opt
            (fun (e' : Sse_table.entry) ->
              e'.pp = e.pp && e'.map = e.map && e'.op = e.op
              && same_group_digit e' e)
            Sse_table.entries
        in
        match Sse_table.find_by_opcode e.pp e.map e.op with
        | Some hit when hit == e -> []
        | _ when shared_movd_movq e -> []
        | _ when (match first with Some f -> f == e | None -> false) -> []
        | _ ->
          [ error "codec-dead-entry"
              (Printf.sprintf "sse:%s/%02x" (Inst.mnemonic_name e.mnem) e.op)
              "table row shadowed by an earlier row with the same key" ])
      Sse_table.entries
  in
  let vex =
    List.concat_map
      (fun (e : Sse_table.ventry) ->
        let w = match e.vw with Some w -> w | None -> false in
        match Sse_table.vfind_by_opcode ~pp:e.vpp ~map:e.vmap ~op:e.vop ~w with
        | Some hit when hit == e -> []
        | _ ->
          [ error "codec-dead-entry"
              (Printf.sprintf "vex:%s/%02x" (Inst.mnemonic_name e.vmnem)
                 e.vop)
              "VEX table row unreachable for its own key" ])
      Sse_table.ventries
  in
  sse @ vex

let substitutions forms =
  List.fold_left
    (fun n inst ->
      match Encode.encode inst with
      | e -> n + (255 * String.length e.bytes)
      | exception Encode.Unencodable _ -> n)
    0 forms

let run ?encode ?(forms = Facile_db.Forms.all) () =
  List.concat_map (fun i -> check_one ?encode i) forms
  @ check_lcp_controls (Option.value encode ~default:Encode.encode)
  @ List.concat_map check_block (chunks 8 forms)
  @ List.concat_map check_canonical forms
  @ check_dead_entries ()
  @ [ Finding.info "codec-coverage" "forms"
        (Printf.sprintf
           "%d forms encoded and round-tripped, %d one-byte substitutions \
            decoded"
           (List.length forms) (substitutions forms)) ]
