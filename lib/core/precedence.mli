(** The precedence-constraint component (paper §4.9).

    Builds the weighted dependence graph over consumed/produced values
    (registers and flags, at full-register granularity), connects
    producers to their consumers within and across iterations, and
    computes the maximum cycle ratio — the recurrence-constrained
    minimum initiation interval — with Howard's algorithm. *)

open Facile_x86

(** [throughput b] is the cycles-per-iteration bound due to loop-carried
    dependence chains (0 when the block has none). *)
val throughput : Block.t -> float

(** [throughput] with the caller's arena (the model threads one arena
    through all components of a prediction). *)
val throughput_in : Arena.t -> Block.t -> float

(** Reference (pre-flattening) implementation: labeled hashtable graph
    build + list-based Howard. Identical results to {!throughput}
    (property-tested); kept for differential tests and the perf
    bench. *)
val throughput_ref : Block.t -> float

(** The dependence graph itself, for tests and for interpretable
    critical-chain extraction. Node [2*i + 0] / [2*i + 1] don't have a
    fixed meaning; use {!node_label} to render them. *)
val graph : Block.t -> Facile_graph.Digraph.t * (int -> string)

(** [critical_chain b] describes the dependency cycle that limits
    throughput, as a list of human-readable node labels, when the
    Precedence bound is non-trivial. *)
val critical_chain : Block.t -> string list

(** Exposed for testing: the same bound computed with Lawler's
    algorithm instead of Howard's. *)
val throughput_lawler : Block.t -> float

val resource_name : Semantics.resource -> string
