(* Domain-local state rule.

   dls-outside-arena  any use of [Domain.DLS] outside lib/core/arena.ml.
                      Every system thread of a domain sees the same
                      domain-local value, and OCaml switches threads at
                      any allocation, so DLS scratch is shared by
                      whatever computations the domain's threads run
                      at once.  Scratch belongs to one computation
                      ([Arena.with_]); arena.ml is the one place that
                      decides how it is owned. *)

open Parsetree
module F = Facile_check.Finding
module A = Lint_ast

let exempt_file src =
  Filename.basename src.A.path = "arena.ml"
  && Filename.basename (Filename.dirname src.A.path) = "core"

(* [Domain.DLS.get], [Stdlib.Domain.DLS], a bare [Domain.DLS] module
   path: any path with the segments Domain, DLS next to each other. *)
let rec names_dls = function
  | "Domain" :: "DLS" :: _ -> true
  | _ :: rest -> names_dls rest
  | [] -> false

let check src =
  let findings = ref [] in
  let flag lid loc =
    if names_dls (A.flatten lid) then
      findings :=
        F.error "dls-outside-arena" (A.where_of_loc src loc)
          (Printf.sprintf
             "%s: domain-local state is shared by every thread of the \
              domain; take per-computation scratch from Arena.with_"
             (A.full_path lid))
        :: !findings
  in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> flag txt loc
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let module_expr it m =
    (match m.pmod_desc with
    | Pmod_ident { txt; loc } -> flag txt loc
    | _ -> ());
    Ast_iterator.default_iterator.module_expr it m
  in
  if not (exempt_file src) then begin
    let iter = { Ast_iterator.default_iterator with expr; module_expr } in
    iter.Ast_iterator.structure iter src.A.structure
  end;
  List.rev !findings
