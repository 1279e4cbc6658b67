(** Sharded concurrent bounded cache with single-flight miss
    coalescing.

    A [('k, 'v) t] is an array of independent bounded LRU shards, each
    behind its own lock, selected by masking the caller-supplied key
    hash — concurrent operations on keys in different shards never
    contend.  Each shard is one intrusive hash table whose entries are
    also its recency list, and a call hashes its key once.  A miss is
    computed under {e single-flight}: the first requester of a key
    computes it (outside any lock) while concurrent requesters of the
    same key wait on the shard's condition variable and reuse the
    result, so K racing identical requests cost one compute.  Hit/miss/coalesced counters are [Atomic] accumulators:
    monotone and cheap to bump, but {!stats} is not a simultaneous
    snapshot (see DESIGN.md section 15).

    Safe to use from any number of domains and threads. *)

type ('k, 'v) t

type stats = {
  hits : int;        (** found cached, including coalesced waits *)
  misses : int;      (** computed by {!find_or_compute} *)
  coalesced : int;   (** requests that waited on another's compute *)
  evictions : int;   (** summed over shards *)
  entries : int;     (** summed over shards *)
  capacity : int;    (** summed over shards; equals the [cap] given *)
  shards : int;      (** actual shard count after rounding/clamping *)
}

(** [create ~shards ~cap ~hash ()] — a cache of at most [cap] entries
    split over [shards] shards ([hash] routes each key).  The shard
    count is rounded up to a power of two and clamped so each shard
    keeps at least 16 entries of capacity (down to a single shard,
    which behaves exactly like one locked LRU map); the per-shard
    capacities sum to exactly [cap].
    @raise Invalid_argument if [cap < 1] or [shards < 1]. *)
val create : shards:int -> cap:int -> hash:('k -> int) -> unit -> ('k, 'v) t

(** Shard count actually in use (a power of two). *)
val shard_count : ('k, 'v) t -> int

(** [find_or_compute t k f x] — the cached value for [k], or [f k x]
    stored under [k].  Concurrent calls for the same [k] compute once:
    one caller owns the compute, the others block until it resolves
    and share the result (counted as [coalesced] and then [hits]).  If
    the owner's [f] raises, the exception propagates to the owner only;
    waiters retry and one of them becomes the new owner.  A value
    {!add}ed for [k] while its compute is in flight is served to the
    waiters, and stays even if the owner raises.  The compute comes as
    a function and its argument, so a caller whose [f] is a closed
    function builds no closure per call, and a hit allocates only the
    cache's own lookup. *)
val find_or_compute : ('k, 'v) t -> 'k -> ('k -> 'a -> 'v) -> 'a -> 'v

(** Plain lookup; promotes to most-recent, does not count a hit. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** Plain insert; does not count a miss (the warm-restart seed path —
    seeded entries must not pollute traffic accounting). *)
val add : ('k, 'v) t -> 'k -> 'v -> unit

(** Monotone counter totals plus summed shard occupancy. *)
val stats : ('k, 'v) t -> stats

(** Every binding in deterministic merge order: shard 0 most-recent
    first, then shard 1, ... — the warm-restart flush order. *)
val to_list : ('k, 'v) t -> ('k * 'v) list
