(** The precedence-constraint component (paper §4.9).

    The bound is the maximum cycle ratio of the weighted dependence
    graph over consumed and produced values (registers and flags, at
    full-register granularity), with producers connected to their
    consumers within and across iterations: the recurrence-constrained
    minimum initiation interval.  The paper computes it with Howard's
    algorithm on that graph, as {!throughput_ref} does.

    Every cycle of the graph crosses the loop back edge, so
    {!throughput} computes the same number from a max-plus matrix over
    the k loop-carried resources (read before any write, and written
    somewhere): one forward pass over the block fills it with the
    longest path from each one's value at iteration entry to each
    one's value at iteration exit, and Karp's algorithm gives its
    maximum cycle mean, in [O(n k + k^3)] for [n] instructions.  Both
    results are one correctly rounded division of the same maximum
    ratio of two integers, so the two return the same float. *)

open Facile_x86

(** [throughput b] is the cycles-per-iteration bound due to loop-carried
    dependence chains (0 when the block has none). *)
val throughput : Block.t -> float

(** [throughput] with the caller's arena (the model threads one arena
    through all components of a prediction). *)
val throughput_in : Arena.t -> Block.t -> float

(** Reference implementation: the labeled dependence graph ({!graph})
    and Howard's algorithm on it.  Bit-identical to {!throughput}
    (property-tested); kept for differential tests, the reference
    pipeline and the paper's cost figures. *)
val throughput_ref : Block.t -> float

(** The dependence graph itself, for tests and for interpretable
    critical-chain extraction, with a function that renders a node as
    [i:resource:use] or [i:resource:def] (logical instruction [i]
    consumes or produces [resource]); node ids have no other fixed
    meaning. *)
val graph : Block.t -> Facile_graph.Digraph.t * (int -> string)

(** [critical_chain b] describes the dependency cycle that limits
    throughput, as a list of human-readable node labels, when the
    Precedence bound is non-trivial. *)
val critical_chain : Block.t -> string list

(** Exposed for testing: the same bound computed with Lawler's
    algorithm instead of Howard's. *)
val throughput_lawler : Block.t -> float

val resource_name : Semantics.resource -> string
