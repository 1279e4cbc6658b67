(** Instruction-table cross-check (rule family [tbl-*]): every form
    enumerated by {!Facile_db.Forms} must have a coherent DB descriptor
    on every microarchitecture, and the ISA feature gate is re-derived
    and compared against what the DB accepts. *)

open Facile_x86
open Facile_uarch

(** Flags mnemonics whose form list is empty ([tbl-missing-form]).
    Exposed with an explicit list for mutation self-tests. *)
val coverage : (Inst.mnemonic * Inst.t list) list -> Finding.t list

(** Descriptor sanity for one instruction (µop counts, port sets,
    latency ranges, decoder arithmetic). *)
val check_desc : Config.t -> Inst.t -> Facile_db.Db.t -> Finding.t list

(** Gate agreement + descriptor sanity for one form on one arch.
    [?requires] substitutes the independent ISA-gate re-derivation
    (mutation self-tests corrupt it to force a disagreement). *)
val check_form :
  ?requires:(Inst.t -> bool) -> Config.t -> Inst.t -> Finding.t list

(** All enumerated forms on one arch. *)
val run_cfg :
  ?by_mnemonic:(Inst.mnemonic * Inst.t list) list ->
  Config.t ->
  Finding.t list

(** The full sweep (default: all nine shipped configs). *)
val run : ?cfgs:Config.t list -> unit -> Finding.t list
