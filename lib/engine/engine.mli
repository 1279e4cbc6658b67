(** Domain-based parallel batch-prediction engine.

    A fixed pool of worker domains (sized from
    [Domain.recommended_domain_count] by default) executes batches of
    independent per-block work over a chunked work queue. Results are
    always ordered by input index, and — because every predictor in
    [Facile_core] is a pure function of its block — a batch produces
    bit-identical results whatever the pool size. With [workers = 1]
    no domain is ever spawned and every batch runs sequentially on the
    calling domain, so the pool can be used unconditionally.

    [predict_batch] adds a memoization layer keyed on
    [(arch, requested mode, block bytes)]: repeated blocks in a
    corpus — common in BHive-style suites — are predicted once and the
    result is reused, both within a batch and across batches of the
    same pool.  The key is what a request sends, so {!predict_code}
    answers a hit from the bytes alone, without decoding or analysing
    the block.  The cache is sharded ({!Shard_cache}): each key hashes
    to one of [cache_shards] independently locked bounded LRUs, and
    concurrent misses on the same key coalesce onto a single compute
    (single flight), so N domains predicting distinct blocks never
    serialize on one lock. *)

open Facile_core

type t

(** [create ?workers ?cache_cap ?cache_shards ()] starts a pool.
    [workers] defaults to [Domain.recommended_domain_count ()]; with
    [workers = 1] the pool is purely sequential. The prediction cache
    of {!predict_batch}, {!predict} and {!predict_code} (not {!map})
    holds at most [cache_cap] entries
    (default 65536) split over [cache_shards] shards (default
    [workers * 4]; rounded up to a power of two and clamped so every
    shard keeps a useful capacity — see {!Shard_cache.create}), so
    cache memory stays flat under endless distinct traffic and cache
    locking stays off the contended path.
    @raise Invalid_argument if [workers < 1], [cache_cap < 1], or
    [cache_shards < 1]. *)
val create :
  ?workers:int -> ?cache_cap:int -> ?cache_shards:int -> unit -> t

val default_cache_cap : int

(** Number of domains doing work for this pool, including the caller. *)
val size : t -> int

(** Shard count of the memoization cache actually in use (after
    power-of-two rounding and capacity clamping). *)
val cache_shard_count : t -> int

(** [shutdown t] joins the worker domains. The pool must not be used
    afterwards. Idempotent. *)
val shutdown : t -> unit

(** [with_pool ?workers ?cache_shards f] runs [f] on a fresh pool and
    shuts it down afterwards, also on exception. *)
val with_pool : ?workers:int -> ?cache_shards:int -> (t -> 'a) -> 'a

type cache_stats = Shard_cache.stats = {
  hits : int;      (** found cached, including coalesced waits *)
  misses : int;    (** distinct keys actually predicted *)
  coalesced : int; (** requests that waited on another's compute *)
  evictions : int; (** entries dropped by the LRU bound *)
  entries : int;   (** currently cached *)
  capacity : int;
  shards : int;
}

(** The memoization layer's accounting since [create].  A hit is a
    reuse, whether from a duplicate within one batch, a coalesced
    concurrent request, or an earlier batch.  Counters are atomic
    accumulators: each is exact and monotone, but the record is not a
    simultaneous snapshot across counters. *)
val cache_stats : t -> cache_stats

(** [map t f xs] — [Array.map f xs], spread over the pool. [f] must be
    safe to call from any domain (in particular it must not touch
    domain-unsafe shared state). The result array is ordered like the
    input; an exception raised by any [f x] is re-raised in the caller
    after the batch drains. *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array

(** [map_list t f xs] — [List.map f xs] via {!map}. *)
val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

(** [predict_batch t ~mode blocks] predicts every block, in parallel,
    cached on [(arch, mode, b.bytes)]: the notion as requested, so
    [`Auto] entries are a key space of their own, not the notion they
    resolve to. The result list is ordered like the input, and is
    bit-identical to a sequential [List.map] of
    [Model.predict ~notion:mode] for every pool size and shard count.
    Duplicate blocks within the batch are predicted once: workers that
    race on the same key coalesce through the cache's single-flight
    path instead of probing and re-adding under two lock rounds. *)
val predict_batch :
  t -> mode:Model.notion -> Block.t list -> Model.prediction list

(** [predict t ~mode b] — cached single-block prediction on the
    calling domain, sharing the cache (and hit/miss accounting) with
    {!predict_batch}: {!predict_code} on [b.bytes] with [b] as the
    analysis. *)
val predict : t -> mode:Model.notion -> Block.t -> Model.prediction

(** [predict_code t cfg ~mode code ~analyze] — cached prediction of
    the machine code [code] on [cfg], in one pass over the cache, on
    the calling domain.  Returns the block's instruction count with
    its prediction.  A hit returns both from the cache without calling
    [analyze]; a miss calls [analyze ()], which must return the block
    of [code] on [cfg] ({!Facile_core.Block.of_bytes} or an equivalent
    analysis), predicts it, and caches the pair.  When [analyze]
    raises, the exception propagates and nothing is cached, so a
    caller can refuse a block (size limit, deadline, bad encoding)
    from inside it.  Passes the ["predict"] fault point once; the
    ["engine.predict"] span times the whole call, so on a miss it
    includes [analyze].  A hit allocates only its key and the cache's
    lookup.  This is the serving layer's per-request path. *)
val predict_code :
  t -> Facile_uarch.Config.t -> mode:Model.notion -> string ->
  analyze:(unit -> Block.t) -> int * Model.prediction

(** A memo entry's key as persisted: microarchitecture, requested
    mode, the block's instruction count and its exact bytes.  The
    cache itself is keyed on [(arch, mode, bytes)] and stores the count
    with the prediction.  Exposed so the persistent prediction store
    ([Facile_store]) can flush and re-seed the cache across process
    restarts. *)
type memo_key = Facile_uarch.Config.arch * Model.notion * int * string

(** Snapshot of the memo cache in deterministic shard-merge order
    (shard 0 most-recent first, then shard 1, ...). *)
val memo_entries : t -> (memo_key * Model.prediction) list

(** [memo_seed t entries] pre-populates the memo cache (warm start)
    with [entries] in {!memo_entries} order (most-recent first within
    each shard), preserving per-shard recency.  Seeded entries do not
    count as hits or misses; a bounded cache keeps only the most
    recent entries per shard. *)
val memo_seed : t -> (memo_key * Model.prediction) list -> unit
