(** Per-(microarchitecture, instruction) performance characteristics —
    the role uops.info and the uiCA instruction data play for the
    original Facile implementation.

    The numbers follow published uops.info / optimization-manual values
    for the supported instruction subset; where exact per-SKU values are
    not public the table uses the family-typical value (see DESIGN.md).

    Domains, following the paper's terminology (§3.2):
    - {e fused-domain} µops as seen by decoders, DSB and LSD
      ([fused_uops]);
    - fused-domain µops {e after unlamination} as seen by the renamer
      ([issued_uops cfg inst]);
    - {e unfused-domain} µops dispatched to execution ports
      ([dispatched]). *)

open Facile_x86
open Facile_uarch

(** Role of a dispatched µop within its instruction; the simulator uses
    this to chain intra-instruction latencies (address generation →
    load → compute → store). *)
type uop_kind =
  | Load
  | Compute
  | Store_addr
  | Store_data
  | Div_pseudo
      (** extra occupancy of the (non-pipelined) divider port; carries
          no data dependency of its own *)

type uop = { kind : uop_kind; ports : Port.t }

type t = {
  fused_uops : int;            (** decode/DSB/LSD-domain µop count *)
  issued_uops : int;           (** after unlamination (renamer view) *)
  dispatched : uop list;       (** unfused µops with their port sets *)
  latency : int;               (** register-to-register result latency of
                                   the compute chain (load latency is the
                                   µarch's [load_latency] on top) *)
  complex_decode : bool;       (** must use the complex decoder *)
  available_simple_dec : int;  (** simple decoders usable in the same
                                   cycle (Algorithm 1, line 12) *)
  eliminated : bool;           (** handled at rename: dispatches nothing *)
  zero_idiom : bool;           (** dependency-breaking idiom *)
  macro_fusible : bool;        (** can macro-fuse with a following Jcc *)
}

(** [describe cfg inst] looks up the characteristics of [inst] on the
    microarchitecture [cfg].
    @raise Unsupported if the instruction does not exist on [cfg]
    (e.g. FMA before Haswell). *)
val describe : Config.t -> Inst.t -> t

exception Unsupported of string

(** [macro_fuses first next] — whether [first], where its descriptor
    is [macro_fusible], fuses with [next]: only a Jcc, and only on a
    condition its flags allow.  TEST and AND fuse with every Jcc; CMP,
    ADD and SUB with all but JO, JNO, JS, JNS, JP and JNP; INC and DEC
    only with JE, JNE, JL, JGE, JLE and JG. *)
val macro_fuses : Inst.t -> Inst.t -> bool

(** [supported cfg inst] is [true] iff [describe] succeeds. *)
val supported : Config.t -> Inst.t -> bool

(** [is_zero_idiom inst] recognizes dependency-breaking idioms
    (XOR/SUB/PXOR/XORPS/... of a register with itself). *)
val is_zero_idiom : Inst.t -> bool

(** The pieces of [describe]'s preamble, exposed for the flat-table
    compiler ({!Flat}) which must reproduce them bit-for-bit before
    its array lookup. *)

(** @raise Unsupported when the instruction needs a feature the
    microarchitecture lacks (FMA/BMI/AVX2 before Haswell). *)
val check_supported : Config.t -> Inst.t -> unit

(** [is_reg_move_elimination cfg inst] — register-to-register moves
    eliminated at rename on [cfg]. *)
val is_reg_move_elimination : Config.t -> Inst.t -> bool

(** The descriptor of a rename-eliminated instruction (1 fused µop,
    nothing dispatched). *)
val eliminated_desc : Config.t -> zero_idiom:bool -> t
