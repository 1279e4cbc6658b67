(** Precedence as the paper computes it (§4.9): the labelled dependence
    graph and Howard's algorithm on it.  {!Facile_core.Precedence}
    returns the same float from its max-plus pass (property-tested);
    the graph is the one its critical chains are witnesses in. *)

open Facile_core

(** The dependence graph, with a function that renders a node as
    [i:resource:use] or [i:resource:def] (logical instruction [i]
    consumes or produces [resource]), the labels of
    {!Precedence.critical_chain}; node ids have no other fixed meaning.
    An edge of count 1 crosses the loop back edge, from the block's last
    writer of a resource to a read of it that comes before any write. *)
val graph : Block.t -> Digraph.t * (int -> string)

(** Howard's algorithm on {!graph}: the maximum cycle ratio, or 0 when
    the graph is acyclic. *)
val throughput : Block.t -> float

(** The same bound from Lawler's parametric search, an independent
    cross-check ([1e-9] absolute). *)
val throughput_lawler : Block.t -> float
