(* Typed error taxonomy for every user-facing input path.  The CLI
   maps each kind to a distinct exit code and `facile serve` maps it
   to the wire `error.kind` field, so scripts and clients can branch
   on the failure class instead of grepping message text. *)

type kind =
  | Bad_hex       (* input is not valid hexadecimal machine code *)
  | Parse_error   (* assembly text does not parse *)
  | Unknown_arch  (* microarchitecture abbreviation not recognised *)
  | Unknown_mode  (* throughput notion not loop/unroll/auto *)
  | Encode_error  (* bytes <-> instruction translation failed *)
  | Too_large     (* input exceeds the configured size limits *)
  | Timeout       (* the request's wall-clock deadline was exceeded *)
  | Check_failed  (* facile check found error-severity findings *)
  | Internal      (* an internal invariant broke, e.g. a non-finite
                     value reached a serialization boundary *)
  | Store_skew    (* a persistent prediction store was written by an
                     incompatible format version or against a different
                     model revision or instruction tables/configs than
                     this build's *)
  | Lint_failed   (* facile lint found error-severity findings *)

type t = { kind : kind; msg : string; pos : int option }

let v ?pos kind msg = { kind; msg; pos }

(* The typed-error exception: surfaces that cannot return a [result]
   (deep inside a serializer, for instance) raise this and the CLI /
   server boundary maps it like any other [t]. *)
exception Error of t

let raise_err ?pos kind msg = raise (Error (v ?pos kind msg))

let all_kinds =
  [ Bad_hex; Parse_error; Unknown_arch; Unknown_mode; Encode_error;
    Too_large; Timeout; Check_failed; Internal; Store_skew; Lint_failed ]

(* stable snake_case names: these are wire protocol, not display text *)
let kind_name = function
  | Bad_hex -> "bad_hex"
  | Parse_error -> "parse_error"
  | Unknown_arch -> "unknown_arch"
  | Unknown_mode -> "unknown_mode"
  | Encode_error -> "encode_error"
  | Too_large -> "too_large"
  | Timeout -> "timeout"
  | Check_failed -> "check_failed"
  | Internal -> "internal"
  | Store_skew -> "store_skew"
  | Lint_failed -> "lint_failed"

let kind_of_name s =
  List.find_opt (fun k -> kind_name k = s) all_kinds

(* Distinct, stable exit codes.  0 success and 1 generic failure stay
   untouched; cmdliner reserves 124/125 for CLI and internal errors. *)
let exit_code = function
  | Bad_hex -> 3
  | Parse_error -> 4
  | Unknown_arch -> 5
  | Unknown_mode -> 6
  | Encode_error -> 7
  | Too_large -> 8
  | Timeout -> 9
  | Check_failed -> 10
  | Internal -> 11
  | Store_skew -> 12
  | Lint_failed -> 13

let to_string e =
  match e.pos with
  | Some p -> Printf.sprintf "%s at byte %d (%s)" e.msg p (kind_name e.kind)
  | None -> Printf.sprintf "%s (%s)" e.msg (kind_name e.kind)
