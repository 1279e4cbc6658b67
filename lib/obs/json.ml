(* Minimal JSON: just enough for the NDJSON wire protocol and the
   metrics snapshot, so the serving path carries no external
   dependency.  Integers are kept distinct from floats because request
   ids and counters round-trip more predictably that way. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ----- printing ----- *)

let hex_digits = "0123456789abcdef"

(* Runs of bytes that need no escape are copied whole, so a string
   with none is one [Buffer.add_substring]. *)
let add_escaped buf s =
  Buffer.add_char buf '"';
  let from = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !from (i - !from);
      from := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf hex_digits.[Char.code c lsr 4];
        Buffer.add_char buf hex_digits.[Char.code c land 15]
    end
  done;
  Buffer.add_substring buf s !from (String.length s - !from);
  Buffer.add_char buf '"'

(* The digits of [n <= 0], most significant first.  Counting below
   zero keeps [min_int] in range. *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let add_int buf i =
  if i < 0 then Buffer.add_char buf '-';
  add_neg_digits buf (if i < 0 then i else -i)

(* The C primitive that [Printf]'s %f, %e and %g conversions end in. *)
external format_float : string -> float -> string = "caml_format_float"

(* JSON has no nan/inf, so they print as null.  An integral value below
   1e15 prints as "%.1f" would ("3.0", "-0.0"), its digits written
   straight into [buf]; any other value prints "%.12g" when that
   round-trips and "%.17g" when it does not. *)
let add_float buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then begin
    if Float.sign_bit f then Buffer.add_char buf '-';
    add_neg_digits buf (-Float.to_int (Float.abs f));
    Buffer.add_string buf ".0"
  end
  else
    let s = format_float "%.12g" f in
    Buffer.add_string buf
      (if float_of_string s = f then s else format_float "%.17g" f)

let float_repr f =
  let buf = Buffer.create 24 in
  add_float buf f;
  Buffer.contents buf

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> add_float buf f
  | Str s -> add_escaped buf s
  | Arr xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        add buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_escaped buf k;
        Buffer.add_char buf ':';
        add buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* ----- parsing ----- *)

(* The parser walks one cursor over the input.  It allocates the values
   it returns, each number's text, and one buffer per string with an
   escape; nothing per character. *)
type cursor = { s : string; n : int; mutable pos : int }

exception Bad of int * string

let max_depth = 256

let fail c msg = raise (Bad (c.pos, msg))

(* the byte under the cursor, or '\000' past the end: callers for whom
   a NUL byte and the end differ test [c.pos < c.n] first *)
let peek c = if c.pos < c.n then String.unsafe_get c.s c.pos else '\000'

let advance c = c.pos <- c.pos + 1

(* a character as OCaml source writes it, like [Printf]'s %C *)
let quoted ch = "'" ^ Char.escaped ch ^ "'"

let skip_ws c =
  while
    match peek c with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance c
  done

let expect c ch =
  if peek c = ch then advance c else fail c ("expected " ^ quoted ch)

let literal c word v =
  let l = String.length word in
  if c.pos + l <= c.n && String.sub c.s c.pos l = word then begin
    c.pos <- c.pos + l;
    v
  end
  else fail c ("expected " ^ word)

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let hex4 c =
  if c.pos + 4 > c.n then fail c "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match peek c with
      | '0' .. '9' as ch -> Char.code ch - Char.code '0'
      | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
      | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
      | _ -> fail c "bad \\u escape"
    in
    v := (!v lsl 4) lor d;
    advance c
  done;
  !v

(* A string without escapes is one [String.sub] of the input; the first
   backslash moves what came before it into a buffer, and the rest of
   the string is read through [escaped]. *)
let rec plain c start =
  if c.pos >= c.n then fail c "unterminated string";
  match String.unsafe_get c.s c.pos with
  | '"' ->
    advance c;
    String.sub c.s start (c.pos - 1 - start)
  | '\\' ->
    let buf = Buffer.create 16 in
    Buffer.add_substring buf c.s start (c.pos - start);
    escaped c buf
  | ch when Char.code ch < 0x20 -> fail c "raw control character in string"
  | _ ->
    advance c;
    plain c start

and escaped c buf =
  if c.pos >= c.n then fail c "unterminated string";
  match String.unsafe_get c.s c.pos with
  | '"' ->
    advance c;
    Buffer.contents buf
  | '\\' ->
    advance c;
    (match peek c with
     | ('"' | '\\' | '/') as ch -> Buffer.add_char buf ch; advance c
     | 'n' -> Buffer.add_char buf '\n'; advance c
     | 't' -> Buffer.add_char buf '\t'; advance c
     | 'r' -> Buffer.add_char buf '\r'; advance c
     | 'b' -> Buffer.add_char buf '\b'; advance c
     | 'f' -> Buffer.add_char buf '\012'; advance c
     | 'u' ->
       advance c;
       let cp = hex4 c in
       let cp =
         (* surrogate pair *)
         if cp >= 0xd800 && cp <= 0xdbff && c.pos + 1 < c.n
            && c.s.[c.pos] = '\\'
            && c.s.[c.pos + 1] = 'u'
         then begin
           c.pos <- c.pos + 2;
           let lo = hex4 c in
           if lo >= 0xdc00 && lo <= 0xdfff then
             0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
           else fail c "bad surrogate pair"
         end
         else cp
       in
       add_utf8 buf cp
     | _ -> fail c "bad escape");
    escaped c buf
  | ch when Char.code ch < 0x20 -> fail c "raw control character in string"
  | ch ->
    Buffer.add_char buf ch;
    advance c;
    escaped c buf

let parse_string c =
  expect c '"';
  plain c c.pos

let is_digit ch = ch >= '0' && ch <= '9'

let skip_digits c =
  while is_digit (peek c) do
    advance c
  done

let parse_number c =
  let start = c.pos in
  if peek c = '-' then advance c;
  if not (is_digit (peek c)) then fail c "expected digit";
  skip_digits c;
  let fractional = match peek c with '.' | 'e' | 'E' -> true | _ -> false in
  if peek c = '.' then begin
    advance c;
    if not (is_digit (peek c)) then fail c "expected digit after '.'";
    skip_digits c
  end;
  (match peek c with
   | 'e' | 'E' ->
     advance c;
     (match peek c with '+' | '-' -> advance c | _ -> ());
     if not (is_digit (peek c)) then fail c "expected digit in exponent";
     skip_digits c
   | _ -> ());
  let text = String.sub c.s start (c.pos - start) in
  if fractional then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)

let rec parse_value c depth =
  if depth > max_depth then fail c "input nested too deeply";
  skip_ws c;
  if c.pos >= c.n then fail c "unexpected end of input";
  match String.unsafe_get c.s c.pos with
  | '{' ->
    advance c;
    skip_ws c;
    if peek c = '}' then begin
      advance c;
      Obj []
    end
    else Obj (members c depth [])
  | '[' ->
    advance c;
    skip_ws c;
    if peek c = ']' then begin
      advance c;
      Arr []
    end
    else Arr (elements c depth [])
  | '"' -> Str (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> parse_number c
  | ch -> fail c ("unexpected character " ^ quoted ch)

and members c depth acc =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  let v = parse_value c (depth + 1) in
  skip_ws c;
  match peek c with
  | ',' ->
    advance c;
    members c depth ((k, v) :: acc)
  | '}' ->
    advance c;
    List.rev ((k, v) :: acc)
  | _ -> fail c "expected ',' or '}'"

and elements c depth acc =
  let v = parse_value c (depth + 1) in
  skip_ws c;
  match peek c with
  | ',' ->
    advance c;
    elements c depth (v :: acc)
  | ']' ->
    advance c;
    List.rev (v :: acc)
  | _ -> fail c "expected ',' or ']'"

let parse (s : string) : (t, string) result =
  let c = { s; n = String.length s; pos = 0 } in
  match
    let v = parse_value c 0 in
    skip_ws c;
    if c.pos <> c.n then fail c "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Bad (p, msg) -> Error (msg ^ " at byte " ^ string_of_int p)
  | exception Stack_overflow -> Error "input nested too deeply"

(* ----- accessors ----- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let string_opt = function Str s -> Some s | _ -> None
let int_opt = function Int i -> Some i | _ -> None

let float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None
