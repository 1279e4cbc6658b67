(** Form-indexed instruction tables: [Db.describe] called once per
    microarchitecture on every form of the dense form-id space of
    {!Forms}, one descriptor kept per form, served by one hashtable
    probe and one array index with a correctness-preserving fallback to
    [Db.describe] for shapes outside the enumerated space (and for
    non-canonical configs, whose flipped feature flags the table does
    not bake in).

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
  descs : Db.t option array;
      (** per form id: [Db.describe] on the canonical config, [None]
          where it raises [Unsupported] *)
  slots : (int, int) Hashtbl.t;
      (** shape key -> representative form id *)
  ambiguous : (int * int) list;
      (** form-id pairs that share a key but differ in descriptor (their
          key takes the fallback); must be empty *)
  elim_zero : Db.t;   (** the zero-idiom descriptor *)
  elim_plain : Db.t;  (** the NOP / eliminated-move descriptor *)
}

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
