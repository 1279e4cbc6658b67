(* Driver for [facile lint]: walk the repo's own .ml sources, run the
   concurrency-discipline rule families over each parsed file, fold
   lock-acquisition edges into the global order graph, and report
   through the same Finding/report machinery as [facile check]. *)

module F = Facile_check.Finding
module A = Lint_ast

(* Rule families, in run order.  Stable names: the CLI's --only and
   the CI loop enumerate these via [facile lint --list]. *)
let rule_families =
  [ "lock"; "blocking"; "order"; "fields"; "handlers"; "dls" ]

let family_doc = function
  | "lock" ->
    "raw Mutex.lock/unlock/try_lock and raw Condition.wait outside \
     lib/core/sync.ml; re-acquiring a held lock"
  | "blocking" -> "blocking calls (I/O, joins, store I/O) under a held lock"
  | "order" -> "cycles in the inter-module lock-acquisition graph"
  | "fields" ->
    "mutable record fields in concurrent code that are neither Atomic.t \
     nor mutex-guarded nor annotated (* lint: unguarded *)"
  | "handlers" -> "signal handlers and at_exit callbacks beyond Atomic flags"
  | "dls" -> "Domain.DLS outside lib/core/arena.ml (thread-shared scratch)"
  | f -> invalid_arg ("Lint.family_doc: " ^ f)

let default_roots = [ "lib"; "bin"; "test"; "bench"; "examples" ]

(* ----- source discovery ----- *)

(* Directories that hold sources which must not be linted: build
   artifacts, VCS internals, and the deliberately-bad fixture corpus
   (which tests lint file by file, on purpose). *)
let skip_dir name =
  name = "_build" || name = ".git" || name = "fixtures"

let rec walk acc path =
  if not (Sys.file_exists path) then acc
  else if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if skip_dir entry then acc
        else walk acc (Filename.concat path entry))
      acc
      (Sys.readdir path)
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let discover roots =
  List.sort_uniq compare (List.fold_left walk [] roots)

(* ----- the run ----- *)

let validate_families fams =
  match List.filter (fun f -> not (List.mem f rule_families)) fams with
  | [] -> ()
  | bad ->
    invalid_arg
      (Printf.sprintf "Lint.run: unknown rule family %s (expected %s)"
         (String.concat "," bad)
         (String.concat "|" rule_families))

let run ?(families = rule_families) ?(roots = default_roots) () =
  validate_families families;
  let on f = List.mem f families in
  let files = discover roots in
  let findings = ref [] in
  let edges = ref [] in
  List.iter
    (fun path ->
      match A.load path with
      | exception A.Parse_failed { where; msg } ->
        findings :=
          F.error "lint-parse" where ("source does not parse: " ^ msg)
          :: !findings
      | src ->
        if on "lock" || on "blocking" || on "order" then begin
          let fs, es =
            Lock_rules.check ~lock:(on "lock") ~blocking:(on "blocking") src
          in
          findings := List.rev_append fs !findings;
          edges := List.rev_append es !edges
        end;
        if on "fields" then
          findings := List.rev_append (Field_rules.check src) !findings;
        if on "handlers" then
          findings := List.rev_append (Handler_rules.check src) !findings;
        if on "dls" then
          findings := List.rev_append (Dls_rules.check src) !findings)
    files;
  if on "order" then
    findings :=
      List.rev_append (Lock_rules.order_findings (List.rev !edges)) !findings;
  (* coverage info so a silently-empty sweep is visible in the report *)
  findings :=
    F.info "lint-coverage" "lint"
      (Printf.sprintf "%d files scanned, %d lock-acquisition edges, %d rule \
                       families (%s)"
         (List.length files) (List.length !edges) (List.length families)
         (String.concat "," families))
    :: !findings;
  let findings = List.sort F.compare !findings in
  { Facile_check.Check.findings;
    n_error = F.count F.Error findings;
    n_warn = F.count F.Warn findings;
    n_info = F.count F.Info findings }
