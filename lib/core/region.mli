(** Multi-block region analysis — the extension the paper sketches as
    future work (§7: "extend Facile to handle more complex code, e.g.,
    involving branches", combining static predictions with profiling
    information).

    A region is a set of basic blocks with execution frequencies (one
    weight per block, e.g. from a profile). Because Facile's component
    bounds are additive resource counts, they compose across blocks:
    execution-port pressure, issue slots, and front-end work aggregate
    frequency-weighted across the region, while dependence chains remain
    per-block (chains across unrelated blocks of a region are broken by
    the intervening control flow).

    The resulting bound is at least as high as the weighted sum of the
    resources, and the region bottleneck is identified the same way as
    for single blocks. *)

(** One block of the region, analyzed (see {!Block.analyze}), with its
    execution frequency. *)
type weighted = { block : Block.t; weight : float }

type result = {
  cycles : float;
      (** expected steady-state cycles per weighted region execution *)
  naive : float;
      (** frequency-weighted sum of standalone block predictions — the
          estimate without cross-block resource aggregation *)
  bottleneck : Model.component;
  component_values : (Model.component * float) list;
      (** aggregated bounds: Ports/Issue pooled across blocks; front-end
          and Precedence combined per block *)
  per_block : (Model.prediction * float) list;
}

(** [analyze blocks] analyzes a region of blocks of one
    microarchitecture. Weights must be finite and positive; they are
    normalized to sum to 1 (expected block mix per region iteration).
    Each block is predicted under its own notion (loop if it ends in a
    branch).
    @raise Invalid_argument on an empty region or a weight that is not
    a finite positive number. *)
val analyze : weighted list -> result
