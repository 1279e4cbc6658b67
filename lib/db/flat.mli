(** Flattened form-indexed instruction tables: [Db.describe] compiled
    once per microarchitecture into flat int/float arrays indexed by
    the dense form-id space of {!Forms}, served by O(1) array lookup
    with a correctness-preserving fallback to [Db.describe] for shapes
    outside the enumerated space (and for non-canonical configs, whose
    flipped feature flags the table does not bake in).

    The equivalence obligation — flat lookup = [Db.describe] on every
    form x every arch — is enforced by the [flat] analyzer family of
    [facile check] and by a differential qcheck over generated
    corpora (see DESIGN.md section 11). *)

open Facile_x86
open Facile_uarch

(** Number of enumerated forms (the id space is [0 .. n_forms - 1]). *)
val n_forms : int

(** The canonical instruction of a form id. *)
val form : int -> Inst.t

(** The shape key: a packed immediate int of every feature
    [Db.describe] dispatches on.  Key equality implies descriptor
    equality (verified exhaustively on the enumerated forms). *)
val key : Inst.t -> int

type table = private {
  cfg : Config.t;
  supported : bool array;
  fused : int array;
  issued : int array;
  latency : int array;
  latency_f : float array;
  avail : int array;
  flags : int array;
  uop_off : int array;
  uop_kind : int array;
  uop_ports : Port.t array;
  descs : Db.t option array;
  slots : (int, int) Hashtbl.t;
  ambiguous : (int * int) list;
  elim_zero : Db.t;
  elim_plain : Db.t;
}

(** Descriptor flag bits of the [flags] array. *)
val f_complex : int
val f_eliminated : int
val f_zero_idiom : int
val f_macro_fusible : int

(** µop kind codes of the [uop_kind] array. *)
val kind_code : Db.uop_kind -> int
val kind_of_code : int -> Db.uop_kind

(** The flat table of a microarchitecture (built once, cached;
    domain-safe). *)
val table : Config.t -> table

(** Whether [cfg] is the canonical record of its arch (the one in
    [Config.all]); only those are served from the table. *)
val is_canonical : Config.t -> bool

(** [describe cfg i] — same contract as [Db.describe] (including
    raising [Db.Unsupported]), served from the flat table when
    possible.  Table hits return a shared descriptor and allocate
    nothing. *)
val describe : Config.t -> Inst.t -> Db.t

(** The form id {!describe} serves [i] from, or a negative marker:
    [-1] fallback, [-2] zero idiom, [-3] NOP, [-4] eliminated move
    (the rename-eliminated cases are decided per call because they
    depend on exact register identities the key ignores).  The [flat]
    check family reports table coverage with it. *)
val id_of : Config.t -> Inst.t -> int
