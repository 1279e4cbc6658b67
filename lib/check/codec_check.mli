(** Codec sweep (rule family [codec-*]): encode/decode identity for
    every enumerated form, layout-metadata agreement, byte-level
    prefix/LCP validation, canonical-form acceptance, and opcode-table
    liveness. *)

open Facile_x86

(** All per-instruction codec rules for one form. [?encode] substitutes
    a corrupted encoder in mutation self-tests. *)
val check_one : ?encode:(Inst.t -> Encode.encoded) -> Inst.t -> Finding.t list

(** [encode_block] / [decode_block] layout agreement for one block. *)
val check_block : Inst.t list -> Finding.t list

(** Every one-byte substitution of [inst]'s encoding that [decode]
    (default {!Decode.decode_block}) accepts must re-encode to the same
    bytes and layouts.  [?decode] substitutes a lenient decoder in
    mutation self-tests. *)
val check_canonical :
  ?decode:(string -> Encode.layout list) -> Inst.t -> Finding.t list

(** Shadowed/unreachable SSE and VEX opcode-table rows. *)
val check_dead_entries : unit -> Finding.t list

(** The full sweep over [forms] (default: {!Facile_db.Forms.all}). *)
val run :
  ?encode:(Inst.t -> Encode.encoded) ->
  ?forms:Inst.t list ->
  unit ->
  Finding.t list
