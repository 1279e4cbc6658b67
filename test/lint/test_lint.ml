(* Self-tests for [facile lint] (DESIGN.md section 14).

   Mutation coverage: each deliberately-bad fixture must produce its
   expected rule id, and each clean twin must produce zero findings —
   so a rule that silently stops firing (or starts over-firing) breaks
   this suite, not just the tree it was supposed to protect.  The CLI
   contract (exit 13, wire kind lint_failed, exit 0 on the shipped
   tree) is pinned through the real binary.  The Sync regression group
   proves the exception-path lock-leak class the sweep fixed is gone:
   a raising critical section must leave its lock re-acquirable. *)

module Lint = Facile_lint.Lint
module F = Facile_check.Finding
module Check = Facile_check.Check
module Sync = Facile_core.Sync
module Engine = Facile_engine.Engine

let fixture name = Filename.concat "fixtures" name
let run_one ?families name = Lint.run ?families ~roots:[ fixture name ] ()

let error_rules r =
  List.filter_map
    (fun f -> if f.F.severity = F.Error then Some f.F.rule else None)
    r.Check.findings
  |> List.sort_uniq compare

(* ----- mutation fixtures: each bad file trips its rule ----- *)

let bad_fixtures =
  [ ("bad_raw_lock.ml", "lock-raw-mutex");
    ("bad_cond_wait.ml", "lock-raw-wait");
    ("bad_self_relock.ml", "lock-self-relock");
    ("bad_blocking.ml", "lock-blocking");
    ("bad_lock_order.ml", "lock-order-cycle");
    ("bad_mutable_field.ml", "field-unguarded");
    ("bad_signal_handler.ml", "handler-unsafe");
    ("bad_at_exit.ml", "handler-unsafe");
    ("bad_dls.ml", "dls-outside-arena");
    ("bad_parse.ml", "lint-parse") ]

let bad_tests =
  List.map
    (fun (file, rule) ->
      Alcotest.test_case (file ^ " trips " ^ rule) `Quick (fun () ->
          let r = run_one file in
          Alcotest.(check bool) "report not ok" false (Check.ok r);
          Alcotest.(check bool)
            (rule ^ " among error rules")
            true
            (List.mem rule (error_rules r))))
    bad_fixtures

(* ----- negative controls: clean twins produce zero findings ----- *)

let clean_fixtures =
  [ "clean_raw_lock.ml"; "clean_cond_wait.ml"; "clean_blocking.ml";
    "clean_lock_order.ml"; "clean_mutable_field.ml";
    "clean_signal_handler.ml"; "clean_at_exit.ml"; "clean_dls.ml" ]

let clean_tests =
  List.map
    (fun file ->
      Alcotest.test_case (file ^ " is clean") `Quick (fun () ->
          let r = run_one file in
          Alcotest.(check bool) "report ok" true (Check.ok r);
          Alcotest.(check int) "no errors" 0 r.Check.n_error))
    clean_fixtures

(* ----- driver behaviour ----- *)

let driver_tests =
  [ Alcotest.test_case "--only isolates families" `Quick (fun () ->
        (* the blocking violation is invisible to the lock family *)
        let r = run_one ~families:[ "lock" ] "bad_blocking.ml" in
        Alcotest.(check bool) "lock-only passes" true (Check.ok r);
        let r = run_one ~families:[ "blocking" ] "bad_blocking.ml" in
        Alcotest.(check bool) "blocking-only fails" false (Check.ok r));
    Alcotest.test_case "unknown family is refused" `Quick (fun () ->
        match Lint.run ~families:[ "bogus" ] ~roots:[] () with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument msg ->
          Alcotest.(check bool)
            "message names the bad family" true
            (Facile_lint.Lint_ast.contains msg "bogus"));
    Alcotest.test_case "every family has a doc line" `Quick (fun () ->
        List.iter
          (fun f ->
            Alcotest.(check bool)
              (f ^ " documented") true
              (String.length (Lint.family_doc f) > 0))
          Lint.rule_families);
    Alcotest.test_case "coverage info counts the scanned files" `Quick
      (fun () ->
        let r = run_one "clean_raw_lock.ml" in
        Alcotest.(check bool)
          "one info finding" true
          (List.exists
             (fun f -> f.F.rule = "lint-coverage" && f.F.severity = F.Info)
             r.Check.findings)) ]

(* ----- CLI contract through the real binary ----- *)

let facile_exe = "../../bin/facile.exe"

let run_cli args =
  let err = Filename.temp_file "lint_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s </dev/null >/dev/null 2>%s" facile_exe args err)
  in
  let text = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (code, text)

let cli_tests =
  [ Alcotest.test_case "shipped tree lints clean (exit 0)" `Quick (fun () ->
        let code, _ = run_cli "lint ../../lib ../../bin" in
        Alcotest.(check int) "exit 0" 0 code);
    Alcotest.test_case "bad fixture exits 13 with lint_failed" `Quick
      (fun () ->
        let code, err = run_cli ("lint " ^ fixture "bad_raw_lock.ml") in
        Alcotest.(check int) "exit 13" 13 code;
        Alcotest.(check bool)
          "stderr names the wire kind" true
          (Facile_lint.Lint_ast.contains err "lint_failed"));
    Alcotest.test_case "--list enumerates the rule families" `Quick
      (fun () ->
        let out = Filename.temp_file "lint_cli" ".out" in
        let code =
          Sys.command
            (Printf.sprintf "%s lint --list </dev/null >%s 2>/dev/null"
               facile_exe out)
        in
        let text = In_channel.with_open_bin out In_channel.input_all in
        Sys.remove out;
        Alcotest.(check int) "exit 0" 0 code;
        List.iter
          (fun f ->
            Alcotest.(check bool)
              (f ^ " listed") true
              (Facile_lint.Lint_ast.contains text f))
          Lint.rule_families) ]

(* ----- Sync regression: raising sections cannot leak locks ----- *)

exception Boom

let sync_tests =
  [ Alcotest.test_case "with_lock releases on raise" `Quick (fun () ->
        let mu = Mutex.create () in
        (try Sync.with_lock mu (fun () -> raise Boom)
         with Boom -> ());
        Alcotest.(check bool)
          "lock re-acquirable" true
          (Mutex.try_lock mu) (* lint: raw-ok — proves re-acquirability *);
        Mutex.unlock mu (* lint: raw-ok — undo the probe *));
    Alcotest.test_case "with_lock_cond releases on a raising predicate"
      `Quick (fun () ->
        let mu = Mutex.create () in
        let cond = Condition.create () in
        (try
           Sync.with_lock_cond mu cond
             ~until:(fun () -> raise Boom)
             (fun () -> ())
         with Boom -> ());
        Alcotest.(check bool)
          "lock re-acquirable" true
          (Mutex.try_lock mu) (* lint: raw-ok — proves re-acquirability *);
        Mutex.unlock mu (* lint: raw-ok — undo the probe *));
    Alcotest.test_case "engine pool survives a raising task" `Quick
      (fun () ->
        Engine.with_pool ~workers:2 (fun pool ->
            (try
               ignore
                 (Engine.map pool
                    (fun x -> if x = 1 then raise Boom else x)
                    [| 0; 1; 2 |]);
               Alcotest.fail "expected Boom"
             with Boom -> ());
            (* the pool's mutex and conditions must still be coherent:
               a second batch runs to completion *)
            let r = Engine.map pool (fun x -> x * 10) [| 1; 2; 3 |] in
            Alcotest.(check (array int)) "second batch" [| 10; 20; 30 |] r))
  ]

let () =
  Alcotest.run "facile-lint"
    [ ("lint.bad", bad_tests);
      ("lint.clean", clean_tests);
      ("lint.driver", driver_tests);
      ("lint.cli", cli_tests);
      ("sync.regression", sync_tests) ]
