(* Sharded concurrent bounded cache with single-flight miss
   coalescing: the contention-free replacement for the engine's old
   single-lock memo LRU.

   Layout: [shards] independent {!Lru.t} instances, each behind its
   own mutex, selected by masking the caller-supplied key hash — so a
   lookup contends only with lookups that hash to the same shard, and
   N domains hitting N distinct shards never serialize.  The shard
   count is rounded up to a power of two (mask, not modulo) and
   clamped so every shard keeps a useful capacity; the total capacity
   is distributed exactly (shard [i] gets [cap/n] entries plus one of
   the [cap mod n] remainders), so the sum of shard bounds equals the
   requested bound and "entries <= cap" holds globally.

   Single flight: each shard carries an in-flight table of keys being
   computed right now.  The first requester of a missing key becomes
   the owner and computes outside the lock; the K-1 others find the
   flight record and wait on the shard condition instead of burning
   K-1 domains on identical work.  An owner that raises removes the
   flight and broadcasts, so waiters wake, observe no result, and
   retry — one of them becomes the new owner.  Waiters compare the
   flight record they joined by physical identity, so a completed
   flight whose entry was evicted and re-missed can never strand a
   stale waiter on a newer flight's result.

   Statistics are [Atomic] accumulators, not lock-guarded fields: hot
   paths pay one fetch-and-add, and {!stats} sums a monotone-but-not-
   simultaneous snapshot (documented in DESIGN.md section 15). *)

module Sync = Facile_core.Sync

type ('k, 'v) flight = {
  mutable result : 'v option;
      (* lint: unguarded — written by the owner and read by waiters
         under the shard mutex *)
}

type ('k, 'v) shard = {
  mu : Mutex.t;
  resolved : Condition.t;
  lru : ('k, 'v) Lru.t;
  inflight : ('k, ('k, 'v) flight) Hashtbl.t;
}

type ('k, 'v) t = {
  mask : int;
  shards : ('k, 'v) shard array;
  hash : 'k -> int;
  hits : int Atomic.t;
  misses : int Atomic.t;
  coalesced : int Atomic.t;
}

type stats = {
  hits : int;
  misses : int;
  coalesced : int;
  evictions : int;
  entries : int;
  capacity : int;
  shards : int;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* Shards below ~16 entries thrash their LRU instead of caching, so a
   tiny total capacity caps the shard count (down to 1, where the
   structure degenerates to exactly the old single-lock LRU). *)
let min_shard_cap = 16

let clamp_shards ~cap n =
  let n = next_pow2 (max 1 n) in
  let rec fit n = if n > 1 && cap / n < min_shard_cap then fit (n / 2) else n in
  fit n

let create ~shards ~cap ~hash () =
  if cap < 1 then
    invalid_arg (Printf.sprintf "Shard_cache.create: cap = %d" cap);
  if shards < 1 then
    invalid_arg (Printf.sprintf "Shard_cache.create: shards = %d" shards);
  let n = clamp_shards ~cap shards in
  let shard_cap i = (cap / n) + (if i < cap mod n then 1 else 0) in
  { mask = n - 1;
    shards =
      Array.init n (fun i ->
          { mu = Mutex.create ();
            resolved = Condition.create ();
            lru = Lru.create (shard_cap i);
            inflight = Hashtbl.create 8 });
    hash;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    coalesced = Atomic.make 0 }

let shard_count (t : ('k, 'v) t) = Array.length t.shards

(* Scramble the low bits with the high ones before masking: the cache
   is generic, and a caller hash with low-bit structure must not
   collapse every key onto shard 0. *)
let shard_of (t : ('k, 'v) t) k =
  let h = t.hash k in
  let h = h lxor (h lsr 16) in
  t.shards.(h land t.mask)

let find t k =
  let s = shard_of t k in
  Sync.with_lock s.mu (fun () -> Lru.find s.lru k)

(* Insert without touching hit/miss accounting: the warm-restart seed
   path ({!Engine.memo_seed}) must leave stats reflecting only this
   process's traffic. *)
let add t k v =
  let s = shard_of t k in
  Sync.with_lock s.mu (fun () -> Lru.add s.lru k v)

let rec find_or_compute t k compute =
  let s = shard_of t k in
  let action =
    Sync.with_lock s.mu (fun () ->
        match Lru.find s.lru k with
        | Some v -> `Hit v
        | None ->
          (match Hashtbl.find_opt s.inflight k with
           | Some f -> `Join f
           | None ->
             let f = { result = None } in
             Hashtbl.add s.inflight k f;
             `Own f))
  in
  match action with
  | `Hit v ->
    Atomic.incr t.hits;
    v
  | `Own f ->
    (match compute () with
     | v ->
       Sync.with_lock s.mu (fun () ->
           f.result <- Some v;
           Lru.add s.lru k v;
           Hashtbl.remove s.inflight k;
           Condition.broadcast s.resolved);
       Atomic.incr t.misses;
       v
     | exception e ->
       let bt = Printexc.get_raw_backtrace () in
       Sync.with_lock s.mu (fun () ->
           Hashtbl.remove s.inflight k;
           Condition.broadcast s.resolved);
       Printexc.raise_with_backtrace e bt)
  | `Join f ->
    Atomic.incr t.coalesced;
    let r =
      Sync.with_lock_cond s.mu s.resolved
        ~until:(fun () ->
          Option.is_some f.result
          ||
          (* flight gone (owner failed) or replaced by a newer one for
             the same key: either way this flight is over *)
          (match Hashtbl.find_opt s.inflight k with
           | Some g -> not (g == f)
           | None -> true))
        (fun () -> f.result)
    in
    (match r with
     | Some v ->
       Atomic.incr t.hits;
       v
     | None ->
       (* the owner raised; race for ownership of the retry *)
       find_or_compute t k compute)

let stats (t : ('k, 'v) t) =
  let evictions = ref 0 and entries = ref 0 and capacity = ref 0 in
  Array.iter
    (fun s ->
      Sync.with_lock s.mu (fun () ->
          evictions := !evictions + Lru.evictions s.lru;
          entries := !entries + Lru.length s.lru;
          capacity := !capacity + Lru.capacity s.lru))
    t.shards;
  { hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    coalesced = Atomic.get t.coalesced;
    evictions = !evictions;
    entries = !entries;
    capacity = !capacity;
    shards = Array.length t.shards }

(* Deterministic merge: shard 0's entries (most-recent first), then
   shard 1's, and so on.  Two caches that saw the same insertions with
   the same shard layout list identically; across different shard
   counts the *set* of entries for the same traffic is identical (and
   predictions are pure), which is what warm-restart bit-identity
   needs. *)
let to_list (t : ('k, 'v) t) =
  Array.to_list t.shards
  |> List.concat_map (fun s -> Sync.with_lock s.mu (fun () -> Lru.to_list s.lru))
