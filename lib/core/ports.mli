(** The execution-port contention component (paper §4.8).

    Assumes the renamer distributes µops optimally. For every port
    combination [pc] that is the union of the port sets of some pair of
    µops, the µops whose port set is a subset of [pc] can only execute
    on the [|pc|] ports of [pc], bounding throughput by
    [count / |pc|]. The prediction is the maximum such bound. *)

open Facile_uarch

val throughput : Block.t -> float

(** [throughput] with the caller's arena (the model threads one arena
    through all components of a prediction). *)
val throughput_in : Arena.t -> Block.t -> float

(** The port combination that reached the bound, with its µop count:
    the first combination, in {!throughput}'s order, whose
    [count / |pc|] is the maximum — the interpretable feedback for a
    Ports bottleneck.  [None] for a block with no µops on ports. *)
val critical_combination : Block.t -> (Port.t * int) option
