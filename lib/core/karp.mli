(** Karp's maximum cycle mean of a small dense graph whose edges all
    count one: the form {!Precedence} reduces the dependence graph to.
    The reference library's Howard, on the same edges, returns the same
    float (property-tested). *)

(** [max_cycle_mean ~n a] is the maximum cycle mean of the graph on
    nodes [0 .. n-1] with an edge [u -> v] of weight [a.(u * n + v)]
    wherever that is [>= 0] (a negative entry: no edge), as an exact
    fraction: it returns the denominator, in [1 .. n], and leaves the
    numerator in [a.(n * n)]; it returns 0 when the graph is acyclic.
    Karp's algorithm (1978), in [O(n^3)] integer steps; candidates are
    compared exactly, so dividing the two as floats gives the maximum
    correctly rounded.  [a] must hold [n * (2n + 1)] ints: the matrix,
    then Karp's table, which the call overwrites; [a] is not otherwise
    touched.  Allocates nothing. *)
val max_cycle_mean : n:int -> int array -> int
