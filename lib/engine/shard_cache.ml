(* Sharded concurrent bounded cache with single-flight miss
   coalescing: the contention-free replacement for the engine's old
   single-lock memo LRU.

   Layout: [shards] independent shards, each behind its own mutex,
   selected by masking the mixed key hash — so a lookup contends only
   with lookups that hash to the same shard, and N domains hitting N
   distinct shards never serialize.  The shard count is rounded up to
   a power of two (mask, not modulo) and clamped so every shard keeps
   a useful capacity; the total capacity is distributed exactly
   (shard [i] gets [cap/n] entries plus one of the [cap mod n]
   remainders), so the sum of shard bounds equals the requested bound
   and "entries <= cap" holds globally.

   A shard is one intrusive table.  Each entry is at once a link of
   its bucket's hash chain, a node of the shard's recency list and,
   while it has no value, the flight that concurrent requesters of its
   key wait on.  A call hashes its key once: the low bits of the mixed
   hash pick the shard, the bits above them the bucket, and a probe
   compares the stored hash before the key.  Links are [entry] values
   whose end marker [Nil] is an immediate, so relinking allocates
   nothing.  The bucket array starts small and doubles whenever it
   holds as many entries as buckets; allocating it to capacity up
   front would charge every engine a table it may never fill.

   Single flight: the first requester of a missing key chains an entry
   without a value and computes outside the lock; the K-1 others find
   that flight and wait on the shard condition instead of burning K-1
   domains on identical work.  The owner then gives the entry its
   value and puts it on the recency list, evicting the least-recent
   entry if the shard is full.  An owner that raises unchains its
   flight and broadcasts, so waiters wake, find no entry, and retry —
   one of them becomes the new owner.  An [add] that lands on a flight
   publishes its value there and wakes the waiters; the entry then
   stays even if the owner raises.

   Statistics are [Atomic] accumulators, not lock-guarded fields: hot
   paths pay one fetch-and-add, and {!stats} sums a monotone-but-not-
   simultaneous snapshot (documented in DESIGN.md section 15). *)

module Sync = Facile_core.Sync

(* Every mutable field of an entry and of a shard is written under the
   shard's mutex.  A value, once set, is only ever replaced by another
   value for the same key and never cleared, so a caller may read an
   entry's value after releasing the lock. *)
type ('k, 'v) entry =
  | Nil
  | Entry of {
      key : 'k;
      hash : int;  (* the mixed hash: shard bits, then bucket bits *)
      mutable value : 'v option;  (* [None] while in flight *)
      mutable chain : ('k, 'v) entry;  (* next in the bucket *)
      mutable newer : ('k, 'v) entry;  (* towards most-recent *)
      mutable older : ('k, 'v) entry;  (* towards least-recent *)
    }

type ('k, 'v) shard = {
  mu : Mutex.t;
  resolved : Condition.t;
  cap : int;
  shift : int;  (* the hash bits that picked this shard *)
  mutable buckets : ('k, 'v) entry array;  (* length a power of two *)
  mutable chained : int;  (* entries in the buckets, flights included *)
  mutable length : int;  (* entries with a value, all on the recency list *)
  mutable evictions : int;
  mutable newest : ('k, 'v) entry;
  mutable oldest : ('k, 'v) entry;
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

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

(* Shards below ~16 entries thrash their LRU instead of caching, so a
   tiny total capacity caps the shard count (down to 1, where the
   structure degenerates to exactly the old single-lock LRU). *)
let min_shard_cap = 16

let clamp_shards ~cap n =
  let n = next_pow2 (max 1 n) in
  let rec fit n = if n > 1 && cap / n < min_shard_cap then fit (n / 2) else n in
  fit n

let initial_buckets = 8

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
            cap = shard_cap i;
            shift = log2 n;
            buckets = Array.make initial_buckets Nil;
            chained = 0;
            length = 0;
            evictions = 0;
            newest = Nil;
            oldest = Nil });
    hash;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    coalesced = Atomic.make 0 }

let shard_count (t : ('k, 'v) t) = Array.length t.shards

(* Scramble the low bits with the high ones: the cache is generic, and
   a caller hash with low-bit structure must not collapse every key
   onto shard 0. *)
let hash_of (t : ('k, 'v) t) k =
  let h = t.hash k in
  h lxor (h lsr 16)

let shard_of (t : ('k, 'v) t) h = t.shards.(h land t.mask)

(* ----- the hash chains; callers hold the shard lock ----- *)

let bucket s h = (h lsr s.shift) land (Array.length s.buckets - 1)

let rec walk h k = function
  | Nil -> Nil
  | Entry r as e ->
    if r.hash = h && compare r.key k = 0 then e else walk h k r.chain

let probe s h k = walk h k s.buckets.(bucket s h)

let grow s =
  let n = 2 * Array.length s.buckets in
  let buckets = Array.make n Nil in
  let rec move = function
    | Nil -> ()
    | Entry r as e ->
      let next = r.chain in
      let i = (r.hash lsr s.shift) land (n - 1) in
      r.chain <- buckets.(i);
      buckets.(i) <- e;
      move next
  in
  Array.iter move s.buckets;
  s.buckets <- buckets

let chain_in s e =
  match e with
  | Nil -> ()
  | Entry r ->
    if s.chained >= Array.length s.buckets then grow s;
    let i = bucket s r.hash in
    r.chain <- s.buckets.(i);
    s.buckets.(i) <- e;
    s.chained <- s.chained + 1

(* [prev]'s chain leads to [e], whose successor is [next]. *)
let rec unlink_after prev e next =
  match prev with
  | Nil -> ()
  | Entry p -> if p.chain == e then p.chain <- next else unlink_after p.chain e next

let chain_out s e =
  match e with
  | Nil -> ()
  | Entry r ->
    let i = bucket s r.hash in
    if s.buckets.(i) == e then s.buckets.(i) <- r.chain
    else unlink_after s.buckets.(i) e r.chain;
    r.chain <- Nil;
    s.chained <- s.chained - 1

(* ----- the recency list ----- *)

let detach s e =
  match e with
  | Nil -> ()
  | Entry r ->
    (match r.newer with Entry n -> n.older <- r.older | Nil -> s.newest <- r.older);
    (match r.older with Entry o -> o.newer <- r.newer | Nil -> s.oldest <- r.newer);
    r.newer <- Nil;
    r.older <- Nil

let push_front s e =
  match e with
  | Nil -> ()
  | Entry r ->
    r.older <- s.newest;
    (match s.newest with Entry n -> n.newer <- e | Nil -> s.oldest <- e);
    s.newest <- e

let promote s e =
  if s.newest != e then begin
    detach s e;
    push_front s e
  end

let fresh h k value =
  Entry { key = k; hash = h; value; chain = Nil; newer = Nil; older = Nil }

(* Put an entry that has just got its value at the front, evicting the
   least-recent one if the shard is full. *)
let admit s e =
  if s.length >= s.cap then begin
    let victim = s.oldest in
    detach s victim;
    chain_out s victim;
    s.length <- s.length - 1;
    s.evictions <- s.evictions + 1
  end;
  push_front s e;
  s.length <- s.length + 1

(* Bind [k] to [v] as most-recent.  A flight for [k] gets [v] as its
   value, and its waiters are woken. *)
let store s h k v =
  match probe s h k with
  | Entry ({ value = Some _; _ } as r) as e ->
    r.value <- Some v;
    promote s e
  | Entry r as e ->
    r.value <- Some v;
    admit s e;
    Condition.broadcast s.resolved
  | Nil ->
    let e = fresh h k (Some v) in
    admit s e;
    chain_in s e

(* The entry for [k], promoted, if it has a value; else a new flight
   that the caller now owns; [Nil] if another caller's flight is
   computing [k]. *)
let claim s h k =
  match probe s h k with
  | Entry { value = Some _; _ } as e ->
    promote s e;
    e
  | Entry _ -> Nil
  | Nil ->
    let e = fresh h k None in
    chain_in s e;
    e

(* The owner's value for its [flight]. *)
let settle s flight v =
  (match flight with
   | Entry ({ value = None; _ } as r) ->
     r.value <- Some v;
     admit s flight
   | Entry r ->
     (* an [add] published this flight meanwhile, and it may since
        have been evicted *)
     store s r.hash r.key v
   | Nil -> ());
  Condition.broadcast s.resolved

let abandon s flight =
  (match flight with
   | Entry { value = None; _ } -> chain_out s flight
   | _ -> ());
  Condition.broadcast s.resolved

let settled s h k =
  match probe s h k with Entry { value = None; _ } -> false | _ -> true

let value_at s h k = match probe s h k with Entry r -> r.value | Nil -> None

(* ----- operations ----- *)

let find t k =
  let h = hash_of t k in
  let s = shard_of t h in
  Sync.with_lock s.mu (fun () ->
      match probe s h k with
      | Entry { value = Some _ as v; _ } as e ->
        promote s e;
        v
      | _ -> None)

(* Insert without touching hit/miss accounting: the warm-restart seed
   path ({!Engine.memo_seed}) must leave stats reflecting only this
   process's traffic. *)
let add t k v =
  let h = hash_of t k in
  let s = shard_of t h in
  Sync.with_lock s.mu (fun () -> store s h k v)

(* [claim]'s entry is read after the lock is released: a value there is
   a hit, even one that an [add] has just published to the caller's own
   flight. *)
let rec resolve (t : ('k, 'v) t) s h k f x =
  match Sync.with_lock s.mu (fun () -> claim s h k) with
  | Entry { value = Some v; _ } ->
    Atomic.incr t.hits;
    v
  | Entry _ as flight ->
    (match f k x with
     | v ->
       Sync.with_lock s.mu (fun () -> settle s flight v);
       Atomic.incr t.misses;
       v
     | exception e ->
       let bt = Printexc.get_raw_backtrace () in
       Sync.with_lock s.mu (fun () -> abandon s flight);
       Printexc.raise_with_backtrace e bt)
  | Nil ->
    Atomic.incr t.coalesced;
    (match
       Sync.with_lock_cond s.mu s.resolved
         ~until:(fun () -> settled s h k)
         (fun () -> value_at s h k)
     with
     | Some v ->
       Atomic.incr t.hits;
       v
     | None ->
       (* the owner raised; race for ownership of the retry *)
       resolve t s h k f x)

let find_or_compute t k f x =
  let h = hash_of t k in
  resolve t (shard_of t h) h k f x

let stats (t : ('k, 'v) t) =
  let evictions = ref 0 and entries = ref 0 and capacity = ref 0 in
  Array.iter
    (fun s ->
      Sync.with_lock s.mu (fun () ->
          evictions := !evictions + s.evictions;
          entries := !entries + s.length;
          capacity := !capacity + s.cap))
    t.shards;
  { hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    coalesced = Atomic.get t.coalesced;
    evictions = !evictions;
    entries = !entries;
    capacity = !capacity;
    shards = Array.length t.shards }

(* Walking from the least-recent end builds the list most-recent
   first. *)
let rec recency acc = function
  | Nil -> acc
  | Entry { key; value = Some v; newer; _ } -> recency ((key, v) :: acc) newer
  | Entry { newer; _ } -> recency acc newer

(* Deterministic merge: shard 0's entries (most-recent first), then
   shard 1's, and so on.  Two caches that saw the same insertions with
   the same shard layout list identically; across different shard
   counts the *set* of entries for the same traffic is identical (and
   predictions are pure), which is what warm-restart bit-identity
   needs. *)
let to_list (t : ('k, 'v) t) =
  Array.to_list t.shards
  |> List.concat_map (fun s -> Sync.with_lock s.mu (fun () -> recency [] s.oldest))
