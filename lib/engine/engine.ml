open Facile_uarch
open Facile_core
module Sync = Facile_core.Sync

(* ------------------------------------------------------------------ *)
(* Worker pool                                                         *)
(*                                                                     *)
(* [size - 1] persistent domains block on [have_work] until a batch    *)
(* closure is published, run it to exhaustion, and report back via     *)
(* [quiesced]. The batch closure itself carries the work queue: an     *)
(* atomic next-chunk counter over the input array, so domains steal    *)
(* chunks without further coordination and each index is claimed by    *)
(* exactly one domain.                                                 *)

(* The memo cache is keyed on the request as sent: µarch, requested
   mode (`Auto is its own key space, not the notion it resolves to)
   and the exact machine code.  Each entry keeps the block's
   instruction count beside its prediction, so a caller holding only
   the bytes can apply a size limit to a hit without analysing the
   block.  [memo_key] is the persisted spelling of a key and its count
   together. *)
type key = Config.arch * Model.notion * string
type memo_key = Config.arch * Model.notion * int * string

type t = {
  size : int;
  mutex : Mutex.t;
  have_work : Condition.t;
  quiesced : Condition.t;
  mutable batch : (unit -> unit) option;
  mutable epoch : int;  (* bumped per batch; wakes workers exactly once *)
  mutable active : int; (* workers still inside the current batch *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  (* memoization of predict/predict_batch: a sharded bounded LRU
     (lock per shard, single-flight misses) so a serving process under
     endless distinct traffic cannot grow without limit and concurrent
     requests do not serialize on one cache lock *)
  memo : (key, int * Model.prediction) Shard_cache.t;
}

let rec worker_loop pool seen_epoch =
  let work =
    Sync.with_lock_cond pool.mutex pool.have_work
      ~until:(fun () -> pool.stop || pool.epoch <> seen_epoch)
      (fun () ->
        if pool.stop then None else Some (pool.epoch, Option.get pool.batch))
  in
  match work with
  | None -> ()
  | Some (epoch, batch) ->
    (* batch closures store per-task exceptions themselves; a raise here
       would mean a bug in the engine, not in user code *)
    batch ();
    Sync.with_lock pool.mutex (fun () ->
        pool.active <- pool.active - 1;
        if pool.active = 0 then Condition.broadcast pool.quiesced);
    worker_loop pool epoch

let default_cache_cap = 65536

let create ?workers ?(cache_cap = default_cache_cap) ?cache_shards () =
  let size =
    match workers with
    | None -> max 1 (Domain.recommended_domain_count ())
    | Some n when n >= 1 -> n
    | Some n -> invalid_arg (Printf.sprintf "Engine.create: workers = %d" n)
  in
  if cache_cap < 1 then
    invalid_arg (Printf.sprintf "Engine.create: cache_cap = %d" cache_cap);
  let shards =
    match cache_shards with
    | None ->
      (* enough shards that even an unlucky hash spread keeps the
         expected contention per lock well below one domain *)
      size * 4
    | Some n when n >= 1 -> n
    | Some n ->
      invalid_arg (Printf.sprintf "Engine.create: cache_shards = %d" n)
  in
  let pool =
    { size; mutex = Mutex.create (); have_work = Condition.create ();
      quiesced = Condition.create (); batch = None; epoch = 0; active = 0;
      stop = false; domains = [];
      (* the shard hash mixes all three key components, the whole byte
         string included *)
      memo = Shard_cache.create ~shards ~cap:cache_cap ~hash:Hashtbl.hash () }
  in
  pool.domains <-
    List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool 0));
  pool

let size pool = pool.size
let cache_shard_count pool = Shard_cache.shard_count pool.memo

let shutdown pool =
  Sync.with_lock pool.mutex (fun () ->
      pool.stop <- true;
      Condition.broadcast pool.have_work);
  List.iter Domain.join pool.domains;
  pool.domains <- []

let with_pool ?workers ?cache_shards f =
  let pool = create ?workers ?cache_shards () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* Run one batch closure on every domain of the pool (caller included)
   and wait until all of them drained the work queue. *)
let run_batch pool batch =
  if pool.domains = [] then batch ()
  else begin
    Sync.with_lock pool.mutex (fun () ->
        pool.batch <- Some batch;
        pool.epoch <- pool.epoch + 1;
        pool.active <- List.length pool.domains;
        Condition.broadcast pool.have_work);
    batch ();
    Sync.with_lock_cond pool.mutex pool.quiesced
      ~until:(fun () -> pool.active = 0)
      (fun () -> pool.batch <- None)
  end

let map pool f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if pool.size = 1 || n = 1 then
    Array.map (fun x -> f x) xs (* sequential fallback, same order *)
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* small chunks balance load; large ones amortize the atomic — a few
       chunks per worker is a reasonable middle ground, floored at 16
       indices per steal so tiny batches don't pay one fetch-and-add
       per element *)
    let chunk = max 16 (n / (pool.size * 8)) in
    let batch () =
      let rec loop () =
        let start = Atomic.fetch_and_add next chunk in
        if start < n then begin
          for i = start to min (start + chunk) n - 1 do
            results.(i) <- Some (try Ok (f xs.(i)) with e -> Error e)
          done;
          loop ()
        end
      in
      loop ()
    in
    run_batch pool batch;
    Array.map
      (function
        | Some (Ok y) -> y
        | Some (Error e) -> raise e
        | None -> assert false (* run_batch drains every index *))
      results
  end

let map_list pool f xs = Array.to_list (map pool f (Array.of_list xs))

(* ------------------------------------------------------------------ *)
(* Memoized block prediction                                           *)

(* resolved once; see Facile_obs.Obs — recording is lock-free *)
let batch_span = Facile_obs.Obs.histogram "engine.batch"
let predict_span = Facile_obs.Obs.histogram "engine.predict"

(* A memo entry: the block's instruction count and its prediction under
   the key's mode.  Both are closed functions of the key and one
   argument, so a call builds no closure for a miss it may not have. *)
let entry_of_block ((_, mode, _) : key) b =
  (Block.instruction_count b, Model.predict ~notion:mode b)

let entry_of_code key analyze = entry_of_block key (analyze ())

let record_predict t0 =
  Facile_obs.Obs.Histogram.record predict_span
    (Facile_obs.Clock.now_ns () - t0)

(* One pass over the sharded cache: a single lock acquisition settles
   hit / join-flight / own-compute, and duplicates — within a batch or
   across concurrent requests — coalesce onto one compute.  Only the
   compute analyses the block, so a hit costs the lookup alone.  The
   engine.predict span around it is two clock reads, not a thunk. *)
let timed_memo pool key f x =
  let t0 = Facile_obs.Clock.now_ns () in
  match
    (* fault-injection hook for the serving path; a no-op unless
       FACILE_FAULT is set *)
    Fault.point "predict";
    Shard_cache.find_or_compute pool.memo key f x
  with
  | v ->
    record_predict t0;
    v
  | exception e ->
    record_predict t0;
    raise e

let predict_code pool (cfg : Config.t) ~mode code ~analyze =
  timed_memo pool (cfg.Config.arch, mode, code) entry_of_code analyze

(* Memoized single-block prediction on the calling domain, sharing the
   cross-batch cache (and its hit/miss accounting) with
   [predict_batch]. *)
let predict pool ~mode (b : Block.t) =
  snd
    (timed_memo pool (b.Block.cfg.Config.arch, mode, b.Block.bytes)
       entry_of_block b)

let predict_batch pool ~mode blocks =
  Facile_obs.Obs.timed batch_span @@ fun () ->
  let f (b : Block.t) =
    snd
      (Shard_cache.find_or_compute pool.memo
         (b.Block.cfg.Config.arch, mode, b.Block.bytes)
         entry_of_block b)
  in
  Array.to_list (map pool f (Array.of_list blocks))

(* ------------------------------------------------------------------ *)
(* Memo persistence: the warm-restart surface of the persistent
   prediction store (Facile_store).  [memo_entries] snapshots the
   cache for flushing to disk; [memo_seed] pre-populates it from
   loaded records without touching the hit/miss accounting, so stats
   reflect only this process's traffic. *)

let memo_entries pool =
  List.map
    (fun ((arch, mode, code), (insts, p)) -> ((arch, mode, insts, code), p))
    (Shard_cache.to_list pool.memo)

(* Entries arrive most-recent first ([memo_entries] order, which the
   store preserves); insert oldest first so each shard's LRU keeps the
   same recency and a bounded cache evicts the same cold tail. *)
let memo_seed pool entries =
  List.iter
    (fun ((arch, mode, insts, code), p) ->
      Shard_cache.add pool.memo (arch, mode, code) (insts, p))
    (List.rev entries)

type cache_stats = Shard_cache.stats = {
  hits : int;
  misses : int;
  coalesced : int;
  evictions : int;
  entries : int;
  capacity : int;
  shards : int;
}

let cache_stats pool = Shard_cache.stats pool.memo
