(** Analyzed basic blocks: instructions + encoding layout + per-µarch
    instruction descriptors + macro-fusion pairing.

    This is the input representation shared by all of Facile's component
    predictors, the baselines, and the pipeline simulator. *)

open Facile_x86
open Facile_db
open Facile_uarch

(** One raw instruction with its encoding layout and DB descriptor. *)
type entry = {
  inst : Inst.t;
  layout : Encode.layout;
  desc : Db.t;
  fuses_with_next : bool;  (** macro-fuses with the following Jcc *)
  fused_into_prev : bool;  (** this Jcc is absorbed by its predecessor *)
}

(** A {e logical} instruction: either a single instruction or a
    macro-fused pair, with the merged µop-level characteristics.
    This is the unit the decoder, renamer and scheduler operate on. *)
type logical = {
  insts : Inst.t list;
  fused_uops : int;
  issued_uops : int;
  dispatched : Db.uop list;
  latency : int;
  complex_decode : bool;
  available_simple_dec : int;
  eliminated : bool;
  zero_idiom : bool;
  is_branch : bool;
  macro_fused : bool;
  reads : Semantics.resource list;
  writes : Semantics.resource list;
  loads : bool;
}

(** The flattened view of the block, decoded once at build time: plain
    arrays of everything the component predictors read per logical
    instruction ([l_*]), per raw entry ([e_*]), plus block-level
    precomputed facts. The hot path indexes these instead of walking
    [entries]/[logicals].

    [flat] mirrors the lists except for per-logical latency, which
    {!Precedence} re-reads from [logicals] so that ablation blocks built
    with [{ b with logicals }] (perturbed latencies) stay correct. *)
type flat = {
  l_fused : int array;  (** fused-domain µops per logical *)
  l_complex : bool array;  (** needs the complex decoder *)
  l_avail : int array;  (** simple decoders available alongside *)
  l_branch : bool array;
  l_mfused : bool array;  (** macro-fused pair *)
  l_addr_mask : int array;  (** GPR bitmask of load-address registers *)
  port_masks : Port.t array;
      (** port sets of all dispatched µops of non-eliminated logicals,
          empty sets dropped — the [Ports] component's input *)
  e_last : int array;  (** per entry: offset of its last byte *)
  e_opc : int array;  (** per entry: nominal opcode offset *)
  e_lcp : bool array;  (** per entry: has a length-changing prefix *)
  tot_fused : int;
  tot_issued : int;
  ends_branch : bool;
  jcc_affected : bool;
}

type t = {
  cfg : Config.t;
  entries : entry list;
  logicals : logical list;
  bytes : string;
  len : int;  (** block length in bytes *)
  flat : flat;  (** flattened hot-path view, see {!flat} *)
}

(** [of_instructions cfg insts] encodes and analyzes a block.
    @raise Encode.Unencodable or [Db.Unsupported] on bad input. *)
val of_instructions : Config.t -> Inst.t list -> t

(** [of_bytes cfg code] decodes machine code and analyzes it; the
    layouts come from the decoder, with no re-encode.
    @raise Decode.Decode_error on undecodable or non-canonical input. *)
val of_bytes : Config.t -> string -> t

(** [analyze cfg input] — the one typed front end from a request's
    input to a block: machine code ([`Code], already un-hexed) or
    Intel-syntax assembly ([`Asm]).  Assembly that does not parse is a
    [Parse_error]; code that does not decode or is not canonical (at
    [pos], the offending instruction's offset), instructions with no
    encoding and instructions [cfg] does not support are an
    [Encode_error]. *)
val analyze :
  Config.t -> [ `Code of string | `Asm of string ] -> (t, Err.t) result

(** Whether the block ends in a (possibly conditional) branch and is
    therefore analyzed as a loop ([TP_L]); otherwise as unrolled
    ([TP_U]). *)
val ends_in_branch : t -> bool

(** Total fused-domain µops (decode/DSB/LSD view). *)
val fused_uops : t -> int

(** Total issue-domain µops (after unlamination). *)
val issued_uops : t -> int

(** The JCC-erratum test: does some branch (or macro-fused pair) cross
    or end on a 32-byte boundary? Only meaningful when
    [cfg.jcc_erratum] holds. *)
val jcc_erratum_affected : t -> bool

(** Reference (pre-flattening) spellings of the block accessors: list
    walks kept for differential tests and for timing the pre-PR inner
    loop in the perf bench. Semantically identical to the array-backed
    accessors above. *)

val ends_in_branch_ref : t -> bool
val fused_uops_ref : t -> int
val issued_uops_ref : t -> int
val jcc_erratum_affected_ref : t -> bool
