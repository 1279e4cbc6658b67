(** Model-invariant checks (rule family [mdl-*]) over a seeded
    Genblock corpus: max-combination correctness, finiteness of
    component bounds, bottleneck consistency and U/L/Auto notion
    dispatch. *)

open Facile_uarch
open Facile_core

(** Invariants of one prediction; exposed for mutation self-tests.
    [notion] says which throughput notion produced it. *)
val check_prediction :
  Config.t ->
  string ->
  notion:[ `Unrolled | `Loop ] ->
  Model.prediction ->
  Finding.t list

(** All model rules for one instruction sequence on one arch. *)
val check_block :
  Config.t -> string -> Facile_x86.Inst.t list -> Finding.t list

(** The full sweep: a deterministic Genblock corpus ([seed], default
    [0xFAC17E]; [blocks_per_profile] straight-line/looped pairs per
    profile, default 4) on every shipped config. *)
val run :
  ?cfgs:Config.t list ->
  ?seed:int ->
  ?blocks_per_profile:int ->
  unit ->
  Finding.t list
