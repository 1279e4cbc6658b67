(** Maximum cycle ratio: the largest value of
    [sum of edge weights / sum of edge counts] over all directed cycles.

    This is the quantity the Precedence component computes on the
    dependence graph (the recurrence-constrained minimum initiation
    interval of modulo scheduling). Two independent algorithms are
    provided; they agree on all inputs (property-tested) and the
    Howard implementation is the fast one used by Facile, as in the
    paper [16, 18]. *)

(** [howard g] computes the maximum cycle ratio by policy iteration
    (Howard's algorithm). Returns [None] when the graph is acyclic.
    @raise Failure if some cycle has total count 0 but positive weight
    (an infinite ratio — dependence graphs never contain such cycles). *)
val howard : Digraph.t -> float option

(** Working storage for {!howard_flat}; its buffers only grow. *)
type scratch

val create_scratch : unit -> scratch

(** [howard_flat ~scratch ~n ~m ~src ~dst ~weight ~count] is [howard]
    on a graph given as parallel edge arrays (first [m] entries, in the
    order the edges would have been [add_edge]d), with all working
    storage in [scratch] — the allocation-free spelling used by the
    Precedence hot path.  Two calls running at once must not share a
    [scratch].  Iteration orders mirror [howard] exactly, so the two
    return identical floats on the same graph. *)
val howard_flat :
  scratch:scratch ->
  n:int ->
  m:int ->
  src:int array ->
  dst:int array ->
  weight:float array ->
  count:int array ->
  float option

(** [lawler g] computes the same value by binary search over candidate
    ratios with positive-cycle detection (Bellman-Ford). Slower but
    independent; used to cross-check [howard]. [epsilon] bounds the
    absolute error (default [1e-9]). *)
val lawler : ?epsilon:float -> Digraph.t -> float option

(** [critical_cycle g r] returns the edges of a cycle whose ratio is at
    least [r - 1e-6], if one exists — the "dependency chain with maximal
    latency" Facile reports for interpretability. *)
val critical_cycle : Digraph.t -> float -> Digraph.edge list option
