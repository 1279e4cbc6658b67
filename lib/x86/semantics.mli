(** Architectural read/write sets of instructions, used by the
    dependence analysis (Facile's Precedence component) and by the
    pipeline simulator's register renaming.

    Registers are tracked at full width ({!Register.full}); partial
    writes are treated as full writes, and the status flags are a single
    resource. Memory is not a tracked resource (the modeling assumptions
    exclude store-to-load aliasing), but address registers of memory
    operands are reads. *)

type resource =
  | Reg of Register.t  (** always full-width canonical *)
  | Flags

val resource_equal : resource -> resource -> bool
val pp_resource : Format.formatter -> resource -> unit

(** {1 Resource codes}

    The dependence analysis works on small integers: [res_code] is
    injective, so two resources are equal exactly when their codes
    are. *)

(** Codes lie in [\[0, n_res)]. *)
val n_res : int

val res_code : resource -> int

(** The inverse of {!res_code} on [\[0, n_res)]. *)
val resource_of_code : int -> resource

(** {1 Read and write sets}

    One per-mnemonic table of operand roles and implicit resources
    answers both spellings below: the folds walk it without
    allocating (block analysis), the lists are views of the folds
    (reference paths, the simulator, tests). *)

(** [fold_read_codes f acc i] folds [f] over the codes of the resources
    [i] consumes, in order: the roles of its mnemonic (register
    sources, flags for conditional and carry-consuming instructions,
    implicit accumulators), then the address registers of its memory
    operands.  A resource may come more than once. *)
val fold_read_codes : ('a -> int -> 'a) -> 'a -> Inst.t -> 'a

(** [fold_write_codes f acc i] — the same over the resources [i]
    produces. *)
val fold_write_codes : ('a -> int -> 'a) -> 'a -> Inst.t -> 'a

(** [reads i] lists the resources whose values [i] consumes: the
    {!fold_read_codes} order with duplicates removed. *)
val reads : Inst.t -> resource list

(** [writes i] lists the resources [i] produces: the
    {!fold_write_codes} order with duplicates removed. *)
val writes : Inst.t -> resource list
