(** Maximum cycle ratio: the largest value of
    [sum of edge weights / sum of edge counts] over all directed cycles.

    This is the quantity the Precedence component computes on the
    dependence graph (the recurrence-constrained minimum initiation
    interval of modulo scheduling).  Two algorithms are provided:
    Howard's policy iteration, the paper's choice [16, 18], and
    Lawler's parametric search, an independent cross-check.  They agree
    on all inputs (property-tested), and Howard agrees bit for bit with
    the model's Karp ([Facile_core.Karp]) on graphs whose edges all
    count one and weigh integers.  Reference code: the model runs
    neither. *)

(** [howard g] computes the maximum cycle ratio by policy iteration
    (Howard's algorithm). Returns [None] when the graph is acyclic.
    Each policy cycle's potentials are rooted at its smallest node, so
    a cycle the policy keeps keeps its potentials from round to round
    and the iteration ends; a guard of [n * m + 64] rounds falls back
    to {!lawler}.
    @raise Failure if some cycle has total count 0 but positive weight
    (an infinite ratio — dependence graphs never contain such cycles). *)
val howard : Digraph.t -> float option

(** [lawler g] computes the same value by binary search over candidate
    ratios with positive-cycle detection (Bellman-Ford). Slower but
    independent; used to cross-check [howard]. [epsilon] bounds the
    absolute error (default [1e-9]). *)
val lawler : ?epsilon:float -> Digraph.t -> float option

(** [critical_cycle g r] returns the edges of a cycle whose ratio is at
    least [r - 1e-6], if one exists: a "dependency chain with maximal
    latency" when [r] is {!howard}'s ratio. *)
val critical_cycle : Digraph.t -> float -> Digraph.edge list option
