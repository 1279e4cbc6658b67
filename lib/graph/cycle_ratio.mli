(** Maximum cycle ratio: the largest value of
    [sum of edge weights / sum of edge counts] over all directed cycles.

    This is the quantity the Precedence component computes on the
    dependence graph (the recurrence-constrained minimum initiation
    interval of modulo scheduling).  Three algorithms are provided:
    Howard's policy iteration, the paper's choice [16, 18]; Lawler's
    parametric search, an independent cross-check; and Karp's maximum
    cycle mean of a small dense graph whose edges all count one, the
    form the Precedence component's fast path reduces the dependence
    graph to.  They agree on all inputs (property-tested), Howard and
    Karp bit for bit on integer weights. *)

(** [howard g] computes the maximum cycle ratio by policy iteration
    (Howard's algorithm). Returns [None] when the graph is acyclic.
    Each policy cycle's potentials are rooted at its smallest node, so
    a cycle the policy keeps keeps its potentials from round to round
    and the iteration ends; a guard of [n * m + 64] rounds falls back
    to {!lawler}.
    @raise Failure if some cycle has total count 0 but positive weight
    (an infinite ratio — dependence graphs never contain such cycles). *)
val howard : Digraph.t -> float option

(** [karp ~n a] is the maximum cycle mean of the graph on nodes
    [0 .. n-1] with an edge [u -> v] of weight [a.(u * n + v)] wherever
    that is [>= 0] (a negative entry: no edge), or [None] when the
    graph is acyclic — {!howard} on the same edges with count 1 each,
    bit for bit.  Karp's algorithm (1978), in [O(n^3)] integer steps
    and one division: the result is the maximum, a ratio of two
    integers, correctly rounded, as is Howard's.  [a] must hold
    [n * (2n + 1)] ints: the matrix, then Karp's table, which the call
    overwrites; [a] is not otherwise touched. *)
val karp : n:int -> int array -> float option

(** [lawler g] computes the same value by binary search over candidate
    ratios with positive-cycle detection (Bellman-Ford). Slower but
    independent; used to cross-check [howard]. [epsilon] bounds the
    absolute error (default [1e-9]). *)
val lawler : ?epsilon:float -> Digraph.t -> float option

(** [critical_cycle g r] returns the edges of a cycle whose ratio is at
    least [r - 1e-6], if one exists — the "dependency chain with maximal
    latency" Facile reports for interpretability. *)
val critical_cycle : Digraph.t -> float -> Digraph.edge list option
