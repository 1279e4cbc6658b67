(* Verification of served responses.  The scanner is the benchmark's
   own, not the program's JSON parser: the client's cost per reply
   stays fixed across builds, and a defect in the program's JSON code
   cannot hide itself by misreading its own output. *)

let index_from s i pat =
  let n = String.length s and m = String.length pat in
  let rec at i j = j = m || (s.[i + j] = pat.[j] && at i (j + 1)) in
  let rec go i =
    if i + m > n then None else if at i 0 then Some i else go (i + 1)
  in
  go i

(* The raw token of the first ["name":] field: up to the next ',', '}'
   or ']' (the fields read here are numbers or plain strings). *)
let field line name =
  let pat = "\"" ^ name ^ "\":" in
  match index_from line 0 pat with
  | None -> None
  | Some i ->
    let start = i + String.length pat in
    let stop = ref start in
    while
      !stop < String.length line
      && not (List.mem line.[!stop] [ ','; '}'; ']' ])
    do
      incr stop
    done;
    Some (String.trim (String.sub line start (!stop - start)))

let unquote s =
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then String.sub s 1 (n - 2)
  else s

type reply =
  | Prediction of { id : int; cycles : float }
  | Error_reply of string  (** the error kind *)
  | Garbled

let scan line =
  match field line "error" with
  | Some _ ->
    Error_reply
      (match field line "kind" with Some k -> unquote k | None -> "?")
  | None ->
    (match field line "id", field line "cycles" with
     | Some id, Some c ->
       (match int_of_string_opt id, float_of_string_opt c with
        | Some id, Some cycles -> Prediction { id; cycles }
        | _ -> Garbled)
     | _ -> Garbled)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The predicted cycles of [line] if it answers request [id], or the
   failure class (counted per class in the run report). *)
let cycles_for ~id line =
  match scan line with
  | Prediction p when p.id <> id -> Error "wrong_id"
  | Prediction p -> Ok p.cycles
  | Error_reply kind -> Error ("error:" ^ kind)
  | Garbled -> Error "garbled"

(* [check ~id ~cycles line]: [None] when [line] answers request [id]
   with exactly [cycles], bit for bit; otherwise the failure class. *)
let check ~id ~cycles line =
  match cycles_for ~id line with
  | Ok c when same_bits c cycles -> None
  | Ok _ -> Some "wrong_cycles"
  | Error why -> Some why

(* ----- accounting ----- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  failures : (string, int) Hashtbl.t;
}

let tally () = { attempted = 0; failed = 0; failures = Hashtbl.create 8 }

let fail t why =
  t.failed <- t.failed + 1;
  Hashtbl.replace t.failures why
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.failures why))
