(* Fault-tolerance layer: the memo cache's bounded LRU semantics, the
   request boundary, deterministic fault injection, and the serve-level
   failure paths (timeout, too_large, crash isolation, EOF drain,
   shutdown of an idle session). *)

open Facile_uarch
open Facile_core
module Json = Facile_obs.Json
module Shard_cache = Facile_engine.Shard_cache
module Supervise = Facile_engine.Supervise
module Fault = Facile_engine.Fault
module Engine = Facile_engine.Engine
module Serve = Facile_engine.Serve
module Net = Facile_engine.Net

let valid_hex = "4801d8" (* add rax, rbx *)

let get path j =
  List.fold_left
    (fun acc key -> Option.bind acc (Json.member key))
    (Some j) path

let get_int path j =
  match Option.bind (get path j) Json.int_opt with
  | Some i -> i
  | None ->
    Alcotest.failf "no int at %s in %s" (String.concat "." path)
      (Json.to_string j)

let error_kind resp =
  Option.bind (get [ "error"; "kind" ] resp) Json.string_opt

let req ?(extra = []) hex =
  Json.to_string (Json.Obj (("hex", Json.Str hex) :: extra))

(* ------------------------------------------------------------------ *)
(* LRU: a one-shard cache is one bounded LRU.  Membership is read
   through [to_list], which does not promote.                         *)

let lru cap = Shard_cache.create ~shards:1 ~cap ~hash:Hashtbl.hash ()
let mem c k = List.mem_assoc k (Shard_cache.to_list c)
let entries c = (Shard_cache.stats c).Shard_cache.entries
let evictions c = (Shard_cache.stats c).Shard_cache.evictions

let lru_tests =
  [ Alcotest.test_case "evicts in LRU order" `Quick (fun () ->
        let t = lru 3 in
        Shard_cache.add t "a" 1; Shard_cache.add t "b" 2; Shard_cache.add t "c" 3;
        Shard_cache.add t "d" 4;  (* evicts a, the least recent *)
        Alcotest.(check bool) "a gone" false (mem t "a");
        Alcotest.(check bool) "b stays" true (mem t "b");
        Alcotest.(check int) "length" 3 (entries t);
        Alcotest.(check int) "evictions" 1 (evictions t));
    Alcotest.test_case "find promotes to most-recent" `Quick (fun () ->
        let t = lru 3 in
        Shard_cache.add t "a" 1; Shard_cache.add t "b" 2; Shard_cache.add t "c" 3;
        Alcotest.(check (option int)) "find a" (Some 1) (Shard_cache.find t "a");
        Shard_cache.add t "d" 4;  (* now b is least recent, not a *)
        Alcotest.(check bool) "a survived" true (mem t "a");
        Alcotest.(check bool) "b evicted" false (mem t "b"));
    Alcotest.test_case "re-adding an existing key does not evict" `Quick
      (fun () ->
        let t = lru 2 in
        Shard_cache.add t "a" 1; Shard_cache.add t "b" 2;
        Shard_cache.add t "a" 10;  (* update in place, promote *)
        Alcotest.(check int) "no eviction" 0 (evictions t);
        Alcotest.(check (option int)) "updated" (Some 10) (Shard_cache.find t "a");
        Shard_cache.add t "c" 3;  (* b was least recent *)
        Alcotest.(check bool) "b evicted" false (mem t "b");
        Alcotest.(check bool) "a stays" true (mem t "a"));
    Alcotest.test_case "capacity one churns correctly" `Quick (fun () ->
        let t = lru 1 in
        for i = 1 to 50 do Shard_cache.add t i i done;
        Alcotest.(check int) "length" 1 (entries t);
        Alcotest.(check int) "evictions" 49 (evictions t);
        Alcotest.(check (option int)) "last one wins" (Some 50)
          (Shard_cache.find t 50));
    Alcotest.test_case "capacity one: promote and update churn" `Quick
      (fun () ->
        (* cap 1 is the degenerate case where head = tail: promote of
           the only entry and update-in-place must not corrupt the
           recency list while every new key evicts *)
        let t = lru 1 in
        Shard_cache.add t "a" 1;
        Alcotest.(check (option int)) "promote sole entry" (Some 1)
          (Shard_cache.find t "a");
        Shard_cache.add t "a" 2;  (* update in place: no eviction *)
        Alcotest.(check int) "update is free" 0 (evictions t);
        for i = 1 to 25 do
          Shard_cache.add t (string_of_int i) i;
          Alcotest.(check (option int)) "new key readable" (Some i)
            (Shard_cache.find t (string_of_int i));
          Alcotest.(check int) "bounded" 1 (entries t)
        done;
        Alcotest.(check int) "one eviction per new key" 25 (evictions t);
        Alcotest.(check bool) "a long gone" false (mem t "a"));
    Alcotest.test_case "to_list is most-recent first, no promotion" `Quick
      (fun () ->
        let t = lru 3 in
        Shard_cache.add t "a" 1; Shard_cache.add t "b" 2; Shard_cache.add t "c" 3;
        ignore (Shard_cache.find t "a");  (* promote a over c *)
        Alcotest.(check (list (pair string int))) "snapshot order"
          [ ("a", 1); ("c", 3); ("b", 2) ] (Shard_cache.to_list t);
        (* the snapshot itself must not have promoted anything *)
        Alcotest.(check (list (pair string int))) "stable"
          [ ("a", 1); ("c", 3); ("b", 2) ] (Shard_cache.to_list t));
    Alcotest.test_case "rejects capacity < 1" `Quick (fun () ->
        match lru 0 with
        | (_ : (int, int) Shard_cache.t) -> Alcotest.fail "accepted cap 0"
        | exception Invalid_argument _ -> ()) ]

(* A cached answer served after heavy eviction churn must equal a
   fresh computation: eviction must only cost speed, never accuracy. *)
let engine_eviction_correctness =
  Alcotest.test_case "evicted-and-recomputed predictions are identical"
    `Quick (fun () ->
      let cfg = Config.by_arch Config.SKL in
      let block_of_hex h =
        match Facile_x86.Hex.decode h with
        | Ok bytes -> Block.of_bytes cfg bytes
        | Error _ -> Alcotest.failf "bad hex %s" h
      in
      (* distinct blocks: 1..8 nops — distinct cache keys *)
      let blocks =
        List.init 8 (fun n ->
            block_of_hex (String.concat "" (List.init (n + 1) (fun _ -> "90"))))
      in
      let t = Engine.create ~workers:1 ~cache_cap:2 () in
      Fun.protect ~finally:(fun () -> Engine.shutdown t) @@ fun () ->
      let first = List.map (Engine.predict t ~mode:`Auto) blocks in
      (* every block but the last two was evicted — run them again *)
      let second = List.map (Engine.predict t ~mode:`Auto) blocks in
      List.iter2
        (fun (a : Model.prediction) (b : Model.prediction) ->
          Alcotest.(check (float 1e-12)) "same cycles" a.Model.cycles
            b.Model.cycles)
        first second;
      let cs = Engine.cache_stats t in
      Alcotest.(check bool) "evictions happened" true (cs.Engine.evictions > 0);
      Alcotest.(check int) "cache bounded" 2 cs.Engine.entries)

(* ------------------------------------------------------------------ *)
(* Request boundary                                                    *)

exception Boom

let supervise_tests =
  [ Alcotest.test_case "ok results pass through" `Quick (fun () ->
        let t = Supervise.create () in
        Fun.protect ~finally:(fun () -> Supervise.shutdown t) @@ fun () ->
        match Supervise.run t (fun () -> 6 * 7) with
        | Ok v -> Alcotest.(check int) "value" 42 v
        | Error e -> Alcotest.failf "unexpected %s" (Printexc.to_string e));
    Alcotest.test_case "a raise is contained and the next run works" `Quick
      (fun () ->
        let t = Supervise.create () in
        Fun.protect ~finally:(fun () -> Supervise.shutdown t) @@ fun () ->
        (match Supervise.run t (fun () -> raise Boom) with
         | Error Boom -> ()
         | Error e -> Alcotest.failf "wrong exn %s" (Printexc.to_string e)
         | Ok _ -> Alcotest.fail "crash swallowed");
        match Supervise.run t (fun () -> "alive") with
        | Ok v -> Alcotest.(check string) "works after a raise" "alive" v
        | Error e -> Alcotest.failf "still broken: %s" (Printexc.to_string e));
    Alcotest.test_case "shutdown falls back to inline execution" `Quick
      (fun () ->
        let t = Supervise.create () in
        Supervise.shutdown t;
        match Supervise.run t (fun () -> 7) with
        | Ok 7 -> ()
        | _ -> Alcotest.fail "inline fallback broken") ]

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

let fault_tests =
  [ Alcotest.test_case "rate 1 always injects, hit counters track" `Quick
      (fun () ->
        Fun.protect ~finally:Fault.clear @@ fun () ->
        Fault.configure "predict:1:42";
        (match Fault.point "predict" with
         | () -> Alcotest.fail "no injection at rate 1"
         | exception Fault.Injected p ->
           Alcotest.(check string) "point name" "predict" p);
        Fault.point "decode";  (* unconfigured points stay silent *)
        let injected, hits = List.assoc "predict" (Fault.snapshot ()) in
        Alcotest.(check int) "hits" 1 hits;
        Alcotest.(check int) "injected" 1 injected);
    Alcotest.test_case "limit caps injections" `Quick (fun () ->
        Fun.protect ~finally:Fault.clear @@ fun () ->
        Fault.configure "p:1:7:2";
        let faults = ref 0 in
        for _ = 1 to 10 do
          match Fault.point "p" with
          | () -> ()
          | exception Fault.Injected _ -> incr faults
        done;
        Alcotest.(check int) "exactly the limit" 2 !faults);
    Alcotest.test_case "seeded rates are deterministic" `Quick (fun () ->
        let run () =
          Fun.protect ~finally:Fault.clear @@ fun () ->
          Fault.configure "p:0.5:1234";
          List.init 64 (fun _ ->
              match Fault.point "p" with
              | () -> false
              | exception Fault.Injected _ -> true)
        in
        let a = run () and b = run () in
        Alcotest.(check (list bool)) "same stream" a b;
        Alcotest.(check bool) "actually mixed" true
          (List.mem true a && List.mem false a));
    Alcotest.test_case "malformed specs are rejected" `Quick (fun () ->
        List.iter
          (fun spec ->
            match Fault.configure spec with
            | () -> Alcotest.failf "accepted %S" spec
            | exception Invalid_argument _ -> ())
          [ "nope"; "p:x:1"; "p:2:1"; "p:-0.5:1"; "p:0.5"; ":" ];
        Fault.clear ()) ]

(* ------------------------------------------------------------------ *)
(* Serve-level failure paths                                           *)

let serve ?deadline_ms ?(limits = Serve.default_limits) () =
  Serve.of_config
    { Serve.default_config with Serve.workers = Some 1; deadline_ms; limits }

let serve_fault_isolation =
  Alcotest.test_case "an injected crash answers internal, then recovers"
    `Quick (fun () ->
      Fun.protect ~finally:Fault.clear @@ fun () ->
      Fault.configure "predict:1:42:1";  (* exactly one crash *)
      let t = serve () in
      Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
      let r1 = Serve.handle_line t (req valid_hex) in
      Alcotest.(check (option string)) "typed internal error"
        (Some "internal") (error_kind r1);
      let r2 = Serve.handle_line t (req valid_hex) in
      Alcotest.(check (option string)) "next request predicts" None
        (error_kind r2);
      Alcotest.(check bool) "has cycles" true
        (Json.member "cycles" r2 <> None);
      let s = Serve.handle_line t {|{"cmd":"stats"}|} in
      Alcotest.(check int) "internal counted" 1
        (get_int [ "stats"; "errors"; "by_kind"; "internal" ] s);
      Alcotest.(check int) "fault attributed" 1
        (get_int [ "stats"; "faults"; "predict"; "injected" ] s))

let serve_deadline =
  Alcotest.test_case "an exhausted deadline answers timeout" `Quick (fun () ->
      let t = serve ~deadline_ms:0 () in
      Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
      let r = Serve.handle_line t (req valid_hex) in
      Alcotest.(check (option string)) "timeout kind" (Some "timeout")
        (error_kind r);
      let s = Serve.handle_line t {|{"cmd":"stats"}|} in
      Alcotest.(check int) "timeout counted" 1
        (get_int [ "stats"; "errors"; "by_kind"; "timeout" ] s);
      (* a timeout is not a crash *)
      Alcotest.(check int) "no internal error" 0
        (Option.value ~default:0
           (Option.bind
              (get [ "stats"; "errors"; "by_kind"; "internal" ] s)
              Json.int_opt)))

(* Each request owns its deadline: with one shared, process-wide
   deadline, the request that finished first would disarm it and let
   the others through. *)
let serve_deadline_threads =
  Alcotest.test_case "deadline 0 times out every request on 4 threads"
    `Quick (fun () ->
      let t = serve ~deadline_ms:0 () in
      Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
      let not_timeout = Atomic.make 0 in
      let worker c =
        for i = 0 to 99 do
          let r =
            Serve.handle_line t
              (req ~extra:[ "id", Json.Int ((100 * c) + i) ] valid_hex)
          in
          if error_kind r <> Some "timeout" then Atomic.incr not_timeout
        done
      in
      List.iter Thread.join (List.init 4 (Thread.create worker));
      Alcotest.(check int) "every predict timed out" 0
        (Atomic.get not_timeout);
      let s = Serve.handle_line t {|{"cmd":"stats"}|} in
      Alcotest.(check int) "timeouts counted" 400
        (get_int [ "stats"; "errors"; "by_kind"; "timeout" ] s))

let serve_too_large =
  Alcotest.test_case "oversized inputs answer too_large" `Quick (fun () ->
      let limits =
        { Serve.default_limits with Serve.max_input_bytes = 8; max_insts = 2 }
      in
      let t = serve ~limits () in
      Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
      (* payload over max_input_bytes *)
      let r = Serve.handle_line t (req (String.concat "" (List.init 16 (fun _ -> "90")))) in
      Alcotest.(check (option string)) "payload cap" (Some "too_large")
        (error_kind r);
      (* decodes fine but has more than max_insts instructions *)
      let r2 = Serve.handle_line t (req "909090") in
      Alcotest.(check (option string)) "inst cap" (Some "too_large")
        (error_kind r2);
      (* a line bigger than max_line_bytes is refused outright *)
      let tiny =
        serve ~limits:{ Serve.default_limits with Serve.max_line_bytes = 32 } ()
      in
      Fun.protect ~finally:(fun () -> Serve.shutdown tiny) @@ fun () ->
      let r3 = Serve.handle_line tiny (req (String.make 64 '9')) in
      Alcotest.(check (option string)) "line cap" (Some "too_large")
        (error_kind r3);
      (* within limits still predicts *)
      let ok = Serve.handle_line t (req valid_hex) in
      Alcotest.(check (option string)) "small input fine" None
        (error_kind ok))

let read_lines fd =
  let inc = Unix.in_channel_of_descr fd in
  let lines = ref [] in
  (try
     while true do
       lines := input_line inc :: !lines
     done
   with End_of_file -> ());
  close_in inc;
  List.rev !lines

(* Full loop over OS pipes: requests in, EOF, every response out, in
   order, clean return. *)
let serve_eof_drain =
  Alcotest.test_case "run drains queued work on EOF" `Quick (fun () ->
      let t = serve () in
      Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
      let req_r, req_w = Unix.pipe ~cloexec:false () in
      let resp_r, resp_w = Unix.pipe ~cloexec:false () in
      let ic = Unix.in_channel_of_descr req_r in
      let oc = Unix.out_channel_of_descr resp_w in
      let n = 20 in
      let writer =
        Thread.create
          (fun () ->
            let out = Unix.out_channel_of_descr req_w in
            for i = 1 to n do
              output_string out
                (req ~extra:[ "id", Json.Int i ] valid_hex);
              output_char out '\n'
            done;
            close_out out (* EOF *))
          ()
      in
      let server = Thread.create (fun () -> Net.run_stdio ~signals:false t ic oc) () in
      Thread.join writer;
      Thread.join server;
      close_out oc;
      let responses = read_lines resp_r in
      Alcotest.(check int) "every request answered" n
        (List.length responses);
      let ids =
        List.map
          (fun line ->
            match Json.parse line with
            | Ok j -> get_int [ "id" ] j
            | Error m -> Alcotest.failf "bad response %S: %s" line m)
          responses
      in
      Alcotest.(check (list int)) "in order, none lost"
        (List.init n (fun i -> i + 1)) ids)

(* A stdio client that stays connected and sends nothing must not keep
   the server from shutting down. *)
let serve_idle_shutdown =
  Alcotest.test_case "run over an idle open pipe stops on request_shutdown"
    `Quick (fun () ->
      let t = serve () in
      Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
      let req_r, req_w = Unix.pipe ~cloexec:false () in
      let resp_r, resp_w = Unix.pipe ~cloexec:false () in
      let ic = Unix.in_channel_of_descr req_r in
      let oc = Unix.out_channel_of_descr resp_w in
      (* the final snapshot goes to stderr: capture it in a file *)
      let err_path = Filename.temp_file "serve_idle" ".err" in
      let err_w =
        Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
      in
      let saved_err = Unix.dup Unix.stderr in
      Unix.dup2 err_w Unix.stderr;
      Unix.close err_w;
      let returned = Atomic.make 0 in
      let server =
        Thread.create
          (fun () ->
            Net.run_stdio ~signals:false t ic oc;
            Atomic.set returned (Facile_obs.Clock.now_ns ()))
          ()
      in
      Thread.delay 0.2;
      let asked = Facile_obs.Clock.now_ns () in
      Serve.request_shutdown t;
      Thread.join server;
      Unix.dup2 saved_err Unix.stderr;
      Unix.close saved_err;
      let waited_s = float_of_int (Atomic.get returned - asked) /. 1e9 in
      Alcotest.(check bool)
        (Printf.sprintf "returned %.3fs after the request" waited_s)
        true (waited_s < 0.5);
      Unix.close req_w;
      close_in ic;
      close_out oc;
      Alcotest.(check int) "nothing answered" 0
        (List.length (read_lines resp_r));
      let final =
        List.find_map
          (fun l ->
            match Json.parse l with
            | Ok j -> Json.member "final_stats" j
            | Error _ -> None)
          (read_lines (Unix.openfile err_path [ Unix.O_RDONLY ] 0))
      in
      Sys.remove err_path;
      Alcotest.(check bool) "final stats flushed" true (final <> None))

let suite =
  [ "engine.lru", lru_tests @ [ engine_eviction_correctness ];
    "engine.supervise", supervise_tests;
    "engine.fault", fault_tests;
    "engine.serve_faults",
    [ serve_fault_isolation; serve_deadline; serve_deadline_threads;
      serve_too_large; serve_eof_drain; serve_idle_shutdown ] ]
