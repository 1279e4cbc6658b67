(** The precedence-constraint component (paper §4.9).

    The bound is the maximum cycle ratio of the weighted dependence
    graph over consumed and produced values (registers and flags, at
    full-register granularity), with producers connected to their
    consumers within and across iterations: the recurrence-constrained
    minimum initiation interval.  The paper computes it with Howard's
    algorithm on that graph; the reference library
    ([Facile_reference.Precedence_ref]) keeps that graph and Howard for
    the differential tests and the paper's cost figures.

    Every cycle of the graph crosses the loop back edge, so this module
    computes the same number from a max-plus matrix over the k
    loop-carried resources (read before any write, and written
    somewhere): one forward pass over the block fills it with the
    longest path from each one's value at iteration entry to each one's
    value at iteration exit, and Karp's algorithm ({!Karp}) gives its
    maximum cycle mean, in [O(n k + k^3)] for [n] instructions.  Both
    results are one correctly rounded division of the same maximum
    ratio of two integers, so the two return the same float.  The
    critical chain is read off the same pass. *)

open Facile_x86

(** [throughput b] is the cycles-per-iteration bound due to loop-carried
    dependence chains (0 when the block has none). *)
val throughput : Block.t -> float

(** [throughput] with the caller's arena (the model threads one arena
    through all components of a prediction). *)
val throughput_in : Arena.t -> Block.t -> float

(** [critical_chain b] is a dependency cycle that limits throughput, as
    node labels of the dependence graph: [i:resource:use] or
    [i:resource:def] (logical instruction [i] consumes or produces
    [resource]).  Each label is followed by a graph edge to the next,
    and the last by one to the first; the weights around it, divided by
    the number of loop back edges it crosses, give exactly
    {!throughput}.  Empty when that bound is 0.

    Among equally critical cycles it takes a fixed one: Karp's exact
    ratio [num / den] reweights each matrix edge [w] to [den * w - num];
    the edges tight under longest-path potentials include every
    critical cycle's, and every cycle of them is critical; the chain
    walks tight edges from the smallest node that has an endless tight
    walk, to each node's smallest successor that has one, until a node
    repeats, and keeps the cycle that closes.  Each matrix edge
    [u -> v] expands backwards from [v]'s last writer, at each
    instruction through its first read whose producer's path plus the
    edge weight (the latency, plus the load latency on an address
    register) makes the instruction's own, until a read of [u]'s value
    at iteration entry.  The list starts at a def that the next
    iteration reads (its next label's instruction index is no greater
    than its own), the one of the lowest index first. *)
val critical_chain : Block.t -> string list

(** The spelling of a resource in chain labels: the register's name, or
    ["flags"]. *)
val resource_name : Semantics.resource -> string
