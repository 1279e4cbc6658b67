(** [facile lint]: AST-level concurrency-discipline analyzer over the
    repository's own OCaml sources, built on compiler-libs.  Rule
    catalog in DESIGN.md section 14. *)

(** Rule family names, in run order:
    ["lock"; "blocking"; "order"; "fields"; "handlers"; "dls"]. *)
val rule_families : string list

(** One-line description of a family.
    @raise Invalid_argument on an unknown name. *)
val family_doc : string -> string

(** The directories scanned when no roots are given:
    ["lib"; "bin"; "test"; "bench"; "examples"]. *)
val default_roots : string list

(** [run ()] lints every .ml file under [roots] (directories are
    walked recursively, skipping [_build], [.git], and [fixtures];
    a root may also name a single file) with the selected rule
    [families], and folds the findings into a [facile check]-style
    report — errors first, with a coverage info line.
    @raise Invalid_argument on a family name outside
      {!rule_families} (the message lists the valid names). *)
val run :
  ?families:string list ->
  ?roots:string list ->
  unit ->
  Facile_check.Check.report
