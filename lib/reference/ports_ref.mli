(** Ports over lists, as the model computed it before its flat arrays:
    the pairwise-union bound over every dispatched µop's port set, and
    the exact bound over every port subset. *)

open Facile_core

(** The pairwise-union bound, the maximum of the same bounds
    {!Facile_core.Ports.throughput} folds over, so the same float. *)
val throughput : Block.t -> float

(** The exact bound: the maximum of [count / |pc|] over {e every}
    subset [pc] of the ports the block's µops use (equivalent to the
    linear program of uops.info [8] on these instances). The paper
    observes that the pairwise heuristic reaches the same bound on all
    BHive benchmarks; [Ports.throughput b = throughput_exhaustive b] is
    property-tested on our corpus, and an ablation bench compares their
    cost. *)
val throughput_exhaustive : Block.t -> float
