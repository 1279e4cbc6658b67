(* Lock-discipline rules over one parsed source file.

   lock-raw-mutex    Mutex.lock / Mutex.unlock / Mutex.try_lock anywhere
                     outside lib/core/sync.ml.  A raw pair cannot prove
                     the unlock runs on exceptional paths; Sync.with_lock
                     can, structurally.
   lock-raw-wait     Condition.wait outside sync.ml — the wait idiom is
                     Sync.with_lock_cond, which owns the surrounding
                     lock/predicate loop.
   lock-self-relock  Sync.with_lock on a lock that is syntactically
                     already held — OCaml mutexes are not reentrant, so
                     this is a guaranteed deadlock (or undefined
                     behaviour) the moment the path executes.
   lock-blocking     a known-blocking call (socket/file I/O, thread or
                     domain joins, store I/O) made while a
                     Sync.with_lock section is syntactically open.

   The analysis is intraprocedural and syntactic: a blocking call hidden
   behind a function value passed into a critical section is not seen.
   That bounds the rule to zero false positives on closure-polymorphic
   helpers at the price of known false negatives, which the fixture
   corpus documents. *)

open Parsetree
module F = Facile_check.Finding
module A = Lint_ast

type edge = { e_from : string; e_to : string; e_where : string }

let raw_mutex_calls = [ "Mutex.lock"; "Mutex.unlock"; "Mutex.try_lock" ]

let blocking_calls =
  [ "Unix.read"; "Unix.write"; "Unix.select"; "Unix.sleep"; "Unix.sleepf";
    "Unix.fsync"; "Unix.accept"; "Unix.connect"; "Unix.recv"; "Unix.send";
    "Unix.waitpid"; "Thread.delay"; "Thread.join"; "Domain.join";
    "Store.append"; "Store.load"; "Store.flush" ]

(* sync.ml implements the combinators; it is the one file allowed to
   touch the raw primitives. *)
let exempt_file src = Filename.basename src.A.path = "sync.ml"

(* Name a lock expression for the acquisition graph: the record field
   or identifier it loads, qualified by the defining module so
   "engine.mutex" and "fault.mu" stay distinct across files. *)
let lock_name src e =
  let base =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> A.last_segment txt
    | Pexp_field (_, { txt; _ }) -> A.last_segment txt
    | _ -> "<expr>"
  in
  src.A.modname ^ "." ^ base

type lock_call =
  | Plain of expression * (Asttypes.arg_label * expression) list
  | Cond of expression * (Asttypes.arg_label * expression) list

(* Recognize [Sync.with_lock mu body] / [Sync.with_lock_cond mu cond
   ~until body] applications, by the callee's final path segment so
   module aliases ([module Sync = Facile_core.Sync]) are covered. *)
let as_lock_call e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, mu) :: rest)
    -> (
    match A.last_segment txt with
    | "with_lock" -> Some (Plain (mu, rest))
    | "with_lock_cond" -> Some (Cond (mu, rest))
    | _ -> None)
  | _ -> None

let check ~lock ~blocking src =
  let findings = ref [] in
  let edges = ref [] in
  let held = ref [] in (* innermost-first stack of held lock names *)
  let add sev rule loc msg =
    findings := F.v sev rule (A.where_of_loc src loc) msg :: !findings
  in
  let exempt = exempt_file src in
  let expr it e =
    match as_lock_call e with
    | Some call ->
      let mu, under, outside =
        match call with
        | Plain (mu, rest) -> (mu, List.map snd rest, [])
        (* with_lock_cond: the condition variable argument is evaluated
           outside the section; ~until and the body run inside it *)
        | Cond (mu, rest) -> (
          match rest with
          | (_, cond) :: rest -> (mu, List.map snd rest, [ cond ])
          | [] -> (mu, [], []))
      in
      let name = lock_name src mu in
      if lock && List.mem name !held then
        add F.Error "lock-self-relock" e.pexp_loc
          (Printf.sprintf
             "lock %s is already held here; OCaml mutexes are not reentrant"
             name);
      (match !held with
      | outer :: _ ->
        edges :=
          { e_from = outer; e_to = name;
            e_where = A.where_of_loc src e.pexp_loc }
          :: !edges
      | [] -> ());
      it.Ast_iterator.expr it mu;
      List.iter (it.Ast_iterator.expr it) outside;
      held := name :: !held;
      List.iter (it.Ast_iterator.expr it) under;
      held := List.tl !held
    | None -> (
      (match e.pexp_desc with
      | Pexp_ident { txt; loc } ->
        let l2 = A.last2 txt in
        let allowed = exempt || A.annotated_raw_ok src loc in
        if lock && (not allowed) && List.mem l2 raw_mutex_calls then
          add F.Error "lock-raw-mutex" loc
            (Printf.sprintf
               "raw %s: critical sections must use Sync.with_lock so the \
                lock is released on exceptional paths"
               l2)
        else if lock && (not allowed) && l2 = "Condition.wait" then
          add F.Error "lock-raw-wait" loc
            "raw Condition.wait: use Sync.with_lock_cond, which owns the \
             lock/predicate loop"
        else if blocking && !held <> [] && List.mem l2 blocking_calls then
          add F.Error "lock-blocking" loc
            (Printf.sprintf
               "blocking call %s while holding lock %s: move it outside \
                the critical section"
               l2
               (List.hd !held))
      | _ -> ());
      Ast_iterator.default_iterator.expr it e)
  in
  let iter = { Ast_iterator.default_iterator with expr } in
  iter.Ast_iterator.structure iter src.A.structure;
  (List.rev !findings, List.rev !edges)

(* ----- lock-order cycle detection over the whole run ----- *)

(* DFS over the acquisition edges collected from every file; any cycle
   means two code paths can acquire the same locks in opposite orders
   and deadlock under concurrency. *)
let order_findings edges =
  let adj = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt adj e.e_from) in
      if not (List.exists (fun (t, _) -> t = e.e_to) cur) then
        Hashtbl.replace adj e.e_from ((e.e_to, e.e_where) :: cur))
    edges;
  let nodes =
    List.sort_uniq compare
      (List.concat_map (fun e -> [ e.e_from; e.e_to ]) edges)
  in
  let color = Hashtbl.create 16 in (* 1 = on stack, 2 = done *)
  let findings = ref [] in
  let rec dfs path node =
    match Hashtbl.find_opt color node with
    | Some 2 -> ()
    | Some _ ->
      let cycle =
        match List.mapi (fun i n -> (i, n)) (List.rev path) with
        | l -> (
          match List.find_opt (fun (_, n) -> n = node) l with
          | Some (i, _) ->
            List.filter_map
              (fun (j, n) -> if j >= i then Some n else None)
              l
          | None -> List.rev path)
      in
      let where =
        match
          List.find_opt (fun e -> e.e_from = node || e.e_to = node) edges
        with
        | Some e -> e.e_where
        | None -> "lint"
      in
      findings :=
        F.error "lock-order-cycle" where
          (Printf.sprintf
             "lock acquisition cycle: %s -> %s — two paths can take these \
              locks in opposite orders and deadlock"
             (String.concat " -> " cycle) node)
        :: !findings
    | None ->
      Hashtbl.replace color node 1;
      List.iter
        (fun (t, _) -> dfs (node :: path) t)
        (Option.value ~default:[] (Hashtbl.find_opt adj node));
      Hashtbl.replace color node 2
  in
  List.iter (fun n -> dfs [] n) nodes;
  List.rev !findings
