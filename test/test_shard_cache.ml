(* The sharded single-flight memo cache (Facile_engine.Shard_cache):
   equivalence against the reference single-lock LRU (lru_ref.ml) on
   short traces and on traces long enough to grow every table,
   single-flight coalescing, concurrent-stress and eviction
   invariants, and shard-count insensitivity of engine predictions. *)

open Facile_uarch
open Facile_core
module Engine = Facile_engine.Engine
module Lru = Lru_ref
module Shard_cache = Facile_engine.Shard_cache

(* The lookup with its compute as one closure *)
let find_or_compute cache k compute =
  Shard_cache.find_or_compute cache k (fun _ compute -> compute ()) compute

let skl = Config.by_arch Config.SKL

(* ------------------------------------------------------------------ *)
(* Randomized op-trace equivalence vs the reference Lru.

   A single-shard cache must behave exactly like one locked Lru —
   same find results, same eviction count, same recency order.  With
   many shards and no eviction pressure, the *contents* must still
   match (eviction order is per-shard by design, so only the
   no-eviction regime is order-comparable). *)

type op = Find of int | Add of int * int | Compute of int

let op_gen ~keys =
  QCheck.Gen.(
    frequency
      [ 3, map (fun k -> Find k) (int_bound (keys - 1));
        3, map2 (fun k v -> Add (k, v)) (int_bound (keys - 1)) small_nat;
        2, map (fun k -> Compute k) (int_bound (keys - 1)) ])

let trace_arb ~keys =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Find k -> Printf.sprintf "find %d" k
             | Add (k, v) -> Printf.sprintf "add %d=%d" k v
             | Compute k -> Printf.sprintf "compute %d" k)
           ops))
    QCheck.Gen.(list_size (int_range 1 200) (op_gen ~keys))

(* compute is a pure function of the key, like a prediction *)
let value_of k = (k * 7919) + 13

let show = function Some v -> string_of_int v | None -> "none"

(* Run [ops] on both caches side by side, failing on the first find or
   compute whose answers differ. *)
let replay sharded reference ops =
  List.iter
    (fun op ->
      match op with
      | Find k ->
        let a = Shard_cache.find sharded k in
        let b = Lru.find reference k in
        if a <> b then
          QCheck.Test.fail_reportf "find %d: %s vs reference %s" k (show a)
            (show b)
      | Add (k, v) ->
        Shard_cache.add sharded k v;
        Lru.add reference k v
      | Compute k ->
        let a = find_or_compute sharded k (fun () -> value_of k)
        and b =
          match Lru.find reference k with
          | Some v -> v
          | None ->
            let v = value_of k in
            Lru.add reference k v;
            v
        in
        if a <> b then
          QCheck.Test.fail_reportf "compute %d: %d vs reference %d" k a b)
    ops

(* Same entries, evictions and recency order as the reference. *)
let same_as_reference sharded reference =
  let s = Shard_cache.stats sharded in
  s.Shard_cache.entries = Lru.length reference
  && s.Shard_cache.evictions = Lru.evictions reference
  && Shard_cache.to_list sharded = Lru.to_list reference

(* Same entries as the reference, in any order, none evicted. *)
let same_contents sharded reference =
  let sorted l = List.sort compare l in
  (Shard_cache.stats sharded).Shard_cache.evictions = 0
  && sorted (Shard_cache.to_list sharded) = sorted (Lru.to_list reference)

let qcheck_single_shard_equivalence =
  QCheck.Test.make ~name:"1-shard cache is exactly the reference Lru"
    ~count:300
    (QCheck.pair (trace_arb ~keys:24) (QCheck.int_range 1 16))
    (fun (ops, cap) ->
      let sharded = Shard_cache.create ~shards:1 ~cap ~hash:Hashtbl.hash () in
      let reference = Lru.create cap in
      replay sharded reference ops;
      same_as_reference sharded reference)

let qcheck_sharded_contents_equivalence =
  QCheck.Test.make
    ~name:"8-shard cache holds the reference contents (no eviction)"
    ~count:300 (trace_arb ~keys:24)
    (fun ops ->
      (* cap >= keyspace on both sides: membership must coincide even
         though recency is per-shard *)
      let cap = 256 in
      let sharded = Shard_cache.create ~shards:8 ~cap ~hash:Hashtbl.hash () in
      let reference = Lru.create cap in
      replay sharded reference ops;
      same_contents sharded reference)

(* Traces long enough to grow a shard's bucket array many times over:
   up to 5,000 keys and three operations per key.  Half the caps are
   small enough to evict constantly; the other half range up to 4,096.  No
   shrinker: a failure reports its first diverging operation. *)
let long_trace_arb ~cap =
  QCheck.make
    ~print:(fun (keys, cap, ops) ->
      Printf.sprintf "%d keys, cap %d, %d operations" keys cap
        (List.length ops))
    QCheck.Gen.(
      int_range 1 5000 >>= fun keys ->
      cap keys >>= fun cap ->
      list_size (int_range 1 (3 * keys)) (op_gen ~keys) >|= fun ops ->
      (keys, cap, ops))

let qcheck_single_shard_long_traces =
  QCheck.Test.make ~name:"1-shard cache, 5,000-key traces: the reference Lru"
    ~count:60
    (long_trace_arb ~cap:(fun _ ->
         QCheck.Gen.(oneof [ int_range 1 64; int_range 1 4096 ])))
    (fun (_, cap, ops) ->
      let sharded = Shard_cache.create ~shards:1 ~cap ~hash:Hashtbl.hash () in
      let reference = Lru.create cap in
      replay sharded reference ops;
      same_as_reference sharded reference)

let qcheck_sharded_long_traces =
  QCheck.Test.make
    ~name:"8-shard cache, 5,000-key traces: the reference contents"
    ~count:40
    (* every shard can hold the whole keyspace: nothing is evicted *)
    (long_trace_arb ~cap:(fun keys -> QCheck.Gen.return (8 * keys)))
    (fun (_, cap, ops) ->
      let sharded = Shard_cache.create ~shards:8 ~cap ~hash:Hashtbl.hash () in
      let reference = Lru.create cap in
      replay sharded reference ops;
      same_contents sharded reference)

(* ------------------------------------------------------------------ *)
(* [domains] domains start together, so the tables grow under
   contention, and each makes [per_domain] [find_or_compute] calls on
   keys drawn from [0, keys), domain [i] with seed [seed + i]; [f k v]
   sees each key and the value the cache returned for it. *)
let race ~domains ~per_domain ~keys ~seed cache f =
  let ready = Atomic.make 0 in
  let worker i () =
    let st = Random.State.make [| seed + i |] in
    Atomic.incr ready;
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    for _ = 1 to per_domain do
      let k = Random.State.int st keys in
      f k (find_or_compute cache k (fun () -> value_of k))
    done
  in
  List.iter Domain.join (List.init domains (fun i -> Domain.spawn (worker i)))

(* Concurrent stress: domains hammer an overlapping keyspace through
   [find_or_compute]; every result must be the pure function of its
   key, the per-call hit-or-miss accounting must balance exactly, and
   with room for every key single flight computes each key once.  The
   4,096-key shapes grow the tables from their first size to the whole
   keyspace while the domains race: a lookup that missed its entry
   because another domain grew the table would compute it twice. *)
let concurrent_stress =
  Alcotest.test_case "concurrent find_or_compute keeps its invariants"
    `Quick (fun () ->
      let domains = 4 in
      List.iter
        (fun (shards, keys, per_domain, seed) ->
          (* every shard can hold the whole keyspace: nothing is evicted *)
          let cache =
            Shard_cache.create ~shards ~cap:(shards * keys) ~hash:Hashtbl.hash ()
          in
          let bad = Atomic.make 0 in
          let seen = Array.init keys (fun _ -> Atomic.make false) in
          race ~domains ~per_domain ~keys ~seed cache (fun k v ->
              Atomic.set seen.(k) true;
              if v <> value_of k then Atomic.incr bad);
          let distinct =
            Array.fold_left (fun n b -> if Atomic.get b then n + 1 else n) 0 seen
          in
          let what = Printf.sprintf "%d shards, %d keys, seed %d: " shards keys seed in
          Alcotest.(check int) (what ^ "every result is the pure value") 0
            (Atomic.get bad);
          let s = Shard_cache.stats cache in
          Alcotest.(check int) (what ^ "each call counted exactly once")
            (domains * per_domain)
            (s.Shard_cache.hits + s.Shard_cache.misses);
          Alcotest.(check int) (what ^ "misses = distinct keys") distinct
            s.Shard_cache.misses;
          Alcotest.(check int) (what ^ "entries = distinct keys") distinct
            s.Shard_cache.entries;
          Alcotest.(check int) (what ^ "nothing evicted") 0
            s.Shard_cache.evictions)
        ((8, 64, 2000, 41)
         :: List.concat_map
              (fun shards ->
                List.init 4 (fun round -> (shards, 4096, 4000, 1000 + (round * 4))))
              [ 1; 4 ]))

(* ------------------------------------------------------------------ *)
(* Single flight: K racing requests for one key compute exactly once.
   The owner's compute spins until every domain has announced itself,
   so the race is real, not a lucky interleaving. *)

let single_flight =
  Alcotest.test_case "K=8 racing identical requests compute once" `Quick
    (fun () ->
      let k = 8 in
      let cache = Shard_cache.create ~shards:4 ~cap:64 ~hash:Hashtbl.hash () in
      let computes = Atomic.make 0 in
      let arrived = Atomic.make 0 in
      let compute () =
        Atomic.incr computes;
        (* hold the flight open until all K requesters are in the race *)
        while Atomic.get arrived < k do
          Domain.cpu_relax ()
        done;
        42
      in
      let racer () =
        Atomic.incr arrived;
        find_or_compute cache 7 compute
      in
      let ds = List.init k (fun _ -> Domain.spawn racer) in
      let results = List.map Domain.join ds in
      Alcotest.(check (list int)) "all see the one result"
        (List.init k (fun _ -> 42))
        results;
      Alcotest.(check int) "exactly one compute" 1 (Atomic.get computes);
      let s = Shard_cache.stats cache in
      Alcotest.(check int) "one miss" 1 s.Shard_cache.misses;
      Alcotest.(check int) "the rest are hits" (k - 1) s.Shard_cache.hits)

let owner_failure_recovers =
  Alcotest.test_case "a raising owner releases the flight" `Quick (fun () ->
      let cache = Shard_cache.create ~shards:2 ~cap:32 ~hash:Hashtbl.hash () in
      (match
         find_or_compute cache 3 (fun () -> failwith "boom")
       with
      | (_ : int) -> Alcotest.fail "expected the owner's exception"
      | exception Failure m ->
        Alcotest.(check string) "owner sees its own exception" "boom" m);
      (* the key is not wedged: the next requester becomes the owner *)
      Alcotest.(check int) "retry computes fresh" 99
        (find_or_compute cache 3 (fun () -> 99));
      Alcotest.(check (option int)) "and the value is cached" (Some 99)
        (Shard_cache.find cache 3))

(* Concurrent eviction: the keyspace is sixteen times the capacity, so
   nearly every call evicts while the tables grow under contention.
   Besides the accounting, the recency lists must agree with the
   counts: as many listed entries as [entries], no key listed twice,
   and each listed key found again. *)
let eviction_stress =
  Alcotest.test_case "concurrent eviction keeps its invariants" `Quick
    (fun () ->
      let keys = 4096 and cap = 256 and domains = 4 and per_domain = 4000 in
      List.iter
        (fun (shards, round) ->
          let cache = Shard_cache.create ~shards ~cap ~hash:Hashtbl.hash () in
          let bad = Atomic.make 0 in
          race ~domains ~per_domain ~keys ~seed:(round * domains) cache
            (fun k v -> if v <> value_of k then Atomic.incr bad);
          let what = Printf.sprintf "%d shards, round %d: " shards round in
          Alcotest.(check int) (what ^ "every result is the pure value") 0
            (Atomic.get bad);
          let s = Shard_cache.stats cache in
          Alcotest.(check int) (what ^ "each call counted exactly once")
            (domains * per_domain)
            (s.Shard_cache.hits + s.Shard_cache.misses);
          Alcotest.(check bool) (what ^ "entries <= cap") true
            (s.Shard_cache.entries <= cap);
          Alcotest.(check int) (what ^ "misses - evictions = entries")
            s.Shard_cache.entries
            (s.Shard_cache.misses - s.Shard_cache.evictions);
          let listed = Shard_cache.to_list cache in
          Alcotest.(check int) (what ^ "listed = entries") s.Shard_cache.entries
            (List.length listed);
          Alcotest.(check int) (what ^ "no key listed twice")
            (List.length listed)
            (List.length (List.sort_uniq compare (List.map fst listed)));
          List.iter
            (fun (k, v) ->
              if v <> value_of k || Shard_cache.find cache k <> Some v then
                Alcotest.failf "%skey %d listed but not found" what k)
            listed)
        (List.concat_map
           (fun shards -> List.init 6 (fun round -> (shards, round)))
           [ 1; 4 ]))

(* An [add] that lands while the key's compute is in flight publishes
   its value to the flight.  The owner then raises: the added value
   stays, a waiter that joined the flight is served it without
   computing, and the next request for the key is a hit. *)
let add_during_flight =
  Alcotest.test_case "an add during a raising flight is kept and served"
    `Quick (fun () ->
      let cache = Shard_cache.create ~shards:2 ~cap:32 ~hash:Hashtbl.hash () in
      let waiter_computed = Atomic.make false in
      let waiter = ref None in
      let owner () =
        (* hold the flight until a second domain has joined it *)
        waiter :=
          Some
            (Domain.spawn (fun () ->
                 find_or_compute cache 5 (fun () ->
                     Atomic.set waiter_computed true;
                     77)));
        while (Shard_cache.stats cache).Shard_cache.coalesced = 0 do
          Domain.cpu_relax ()
        done;
        Shard_cache.add cache 5 50;
        failwith "boom"
      in
      (match find_or_compute cache 5 owner with
      | (_ : int) -> Alcotest.fail "expected the owner's exception"
      | exception Failure m ->
        Alcotest.(check string) "owner sees its own exception" "boom" m);
      Alcotest.(check int) "the waiter is served the added value" 50
        (Domain.join (Option.get !waiter));
      Alcotest.(check bool) "without computing" false
        (Atomic.get waiter_computed);
      Alcotest.(check (option int)) "the added value is kept" (Some 50)
        (Shard_cache.find cache 5);
      Alcotest.(check int) "the key is a hit, not wedged" 50
        (find_or_compute cache 5 (fun () -> 99));
      let s = Shard_cache.stats cache in
      Alcotest.(check int) "no compute finished" 0 s.Shard_cache.misses;
      Alcotest.(check int) "one entry" 1 s.Shard_cache.entries)

(* ------------------------------------------------------------------ *)
(* Capacity distribution and shard clamping                            *)

let shape_tests =
  [ Alcotest.test_case "per-shard capacities sum to the exact bound"
      `Quick (fun () ->
        List.iter
          (fun (shards, cap) ->
            let c : (int, int) Shard_cache.t =
              Shard_cache.create ~shards ~cap ~hash:Hashtbl.hash ()
            in
            let s = Shard_cache.stats c in
            Alcotest.(check int)
              (Printf.sprintf "cap %d over %d shards" cap shards)
              cap s.Shard_cache.capacity)
          [ (1, 7); (3, 100); (4, 65536); (8, 1000); (32, 97) ]);
    Alcotest.test_case "tiny capacities collapse to fewer shards" `Quick
      (fun () ->
        let count ~shards ~cap =
          Shard_cache.shard_count
            (Shard_cache.create ~shards ~cap ~hash:Hashtbl.hash ()
              : (int, int) Shard_cache.t)
        in
        Alcotest.(check int) "cap 2 -> 1 shard" 1 (count ~shards:4 ~cap:2);
        Alcotest.(check int) "cap 64 caps at 4 shards" 4
          (count ~shards:16 ~cap:64);
        Alcotest.(check int) "shard count rounds up to a power of two" 8
          (count ~shards:5 ~cap:65536));
    Alcotest.test_case "rejects invalid arguments" `Quick (fun () ->
        (match Shard_cache.create ~shards:0 ~cap:16 ~hash:Hashtbl.hash () with
        | (_ : (int, int) Shard_cache.t) -> Alcotest.fail "accepted shards 0"
        | exception Invalid_argument _ -> ());
        match Shard_cache.create ~shards:4 ~cap:0 ~hash:Hashtbl.hash () with
        | (_ : (int, int) Shard_cache.t) -> Alcotest.fail "accepted cap 0"
        | exception Invalid_argument _ -> ()) ]

(* ------------------------------------------------------------------ *)
(* Engine-level: predictions are bit-identical whatever the shard
   count (the acceptance bar for making the serving cache concurrent). *)

let shard_count_bit_identity =
  Alcotest.test_case "predictions identical across shard counts" `Quick
    (fun () ->
      let cases = Facile_bhive.Suite.corpus ~seed:47 ~size:60 () in
      let blocks =
        List.concat_map
          (fun (c : Facile_bhive.Suite.case) ->
            [ Block.of_instructions skl c.Facile_bhive.Suite.body;
              Block.of_instructions skl c.Facile_bhive.Suite.loop ])
          cases
      in
      let blocks = blocks @ blocks in
      let predict ~cache_shards =
        Engine.with_pool ~workers:2 ~cache_shards (fun pool ->
            Engine.predict_batch pool ~mode:`Auto blocks)
      in
      let reference = predict ~cache_shards:1 in
      List.iter
        (fun shards ->
          let got = predict ~cache_shards:shards in
          List.iter2
            (fun (a : Model.prediction) (b : Model.prediction) ->
              List.iter
                (fun c ->
                  if not (Float.equal (Model.value a c) (Model.value b c))
                  then
                    Alcotest.failf "%d shards: component %s differs" shards
                      (Model.component_name c))
                Model.all_components;
              if not (Float.equal a.Model.cycles b.Model.cycles) then
                Alcotest.failf "%d shards: cycles differ" shards)
            reference got)
        [ 2; 8; 32 ])

let suite =
  [ ( "shard_cache",
      [ QCheck_alcotest.to_alcotest qcheck_single_shard_equivalence;
        QCheck_alcotest.to_alcotest qcheck_sharded_contents_equivalence;
        QCheck_alcotest.to_alcotest qcheck_single_shard_long_traces;
        QCheck_alcotest.to_alcotest qcheck_sharded_long_traces;
        concurrent_stress; eviction_stress; single_flight;
        owner_failure_recovers; add_during_flight ]
      @ shape_tests
      @ [ shard_count_bit_identity ] ) ]
