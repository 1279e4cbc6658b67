(** x86-64 machine-code decoder for the supported instruction subset.

    The decoder is the inverse of {!Encode}, in both directions: for
    every instruction the encoder can produce, [decode] reconstructs
    the original {!Inst.t} (including canonical memory-operand widths),
    and it accepts exactly the bytes the encoder emits, so
    [encode (decode bytes) = bytes] whenever [decode] succeeds.

    Canonical form is enforced per instruction, while it is parsed,
    without re-encoding.  Bytes that decode to a supported instruction
    the encoder would spell differently are rejected: a prefix, REX or
    VEX bit the instruction does not use; a repeated or out-of-order
    legacy prefix; a REX byte that is not needed, or a missing one
    (SPL, BPL, SIL and DIL need it); MOVSXD without REX.W; and every
    longer or alternative form the encoder avoids (the reverse
    register-to-register direction, a 32-bit immediate, branch offset
    or displacement where 8 bits fit, C6/C7 /0 for a register below 64
    bits, B8+r with an imm64 that fits 32 bits, an unneeded SIB byte, a
    3-byte VEX where the 2-byte form suffices, a nonzero reg field in
    SETcc or NOPL, MOVQ with memory through the MOVD opcodes).
    Register forms of MOVBE and NOPL are not supported. *)

exception Decode_error of string * int
(** [Decode_error (msg, offset)] is raised on bytes outside the
    supported encoding subset, truncated or not in canonical form;
    [offset] is where the offending instruction starts.  A block is
    decoded in byte order, so the first offending instruction is the
    one reported. *)

(** [decode_one s ~pos] decodes the instruction starting at [pos] and
    returns it together with its encoded length.
    @raise Decode_error on unsupported, truncated or non-canonical
    encodings. *)
val decode_one : string -> pos:int -> Inst.t * int

(** [decode_block s] decodes a whole basic block.  Each instruction's
    layout comes from its bytes as they are parsed: offset, length,
    nominal-opcode offset (the byte after the legacy prefixes and REX,
    or the C4/C5 byte) and LCP (a 16-bit immediate was read).  These
    are the records {!Encode.encode_block} produces for the decoded
    instructions.
    @raise Decode_error as {!decode_one}. *)
val decode_block : string -> Encode.layout list

(** [instructions s] is [decode_block] without the layout metadata. *)
val instructions : string -> Inst.t list
