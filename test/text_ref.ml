(* The per-request text routines as they were written with Printf and
   per-character options, kept verbatim as references: the
   differential qchecks in test_text.ml require [Json.to_string],
   [Json.float_repr], [Json.parse] and [Hex.decode] to answer exactly
   what these answer, on every input. *)

module Err = Facile_x86.Err

type t = Facile_obs.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ----- printing ----- *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  (* JSON has no nan/inf; shortest decimal form that round-trips *)
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
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

exception Bad of int * string

let max_depth = 256

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Bad (!pos, msg)) in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
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
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v lsl 4) lor d;
      advance ()
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
         | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
         | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
         | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
         | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
         | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
         | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
         | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
         | Some 'u' ->
           advance ();
           let cp = hex4 () in
           let cp =
             (* surrogate pair *)
             if cp >= 0xd800 && cp <= 0xdbff && !pos + 1 < n
                && s.[!pos] = '\\'
                && !pos + 1 < n
                && s.[!pos + 1] = 'u'
             then begin
               pos := !pos + 2;
               let lo = hex4 () in
               if lo >= 0xdc00 && lo <= 0xdfff then
                 0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
               else fail "bad surrogate pair"
             end
             else cp
           in
           add_utf8 buf cp;
           go ()
         | _ -> fail "bad escape")
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let is_digit () =
      match peek () with Some ('0' .. '9') -> true | _ -> false
    in
    if not (is_digit ()) then fail "expected digit";
    while is_digit () do
      advance ()
    done;
    let fractional = ref false in
    if peek () = Some '.' then begin
      fractional := true;
      advance ();
      if not (is_digit ()) then fail "expected digit after '.'";
      while is_digit () do
        advance ()
      done
    end;
    (match peek () with
     | Some ('e' | 'E') ->
       fractional := true;
       advance ();
       (match peek () with Some ('+' | '-') -> advance () | _ -> ());
       if not (is_digit ()) then fail "expected digit in exponent";
       while is_digit () do
         advance ()
       done
     | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !fractional then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value depth =
    if depth > max_depth then fail "input nested too deeply";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (elements [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Bad (p, msg) ->
    Error (Printf.sprintf "%s at byte %d" msg p)
  | exception Stack_overflow -> Error "input nested too deeply"

(* ----- hex ----- *)

let digit_value c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let hex_decode s : (string, Err.t) result =
  let digits = Buffer.create (String.length s) in
  let bad = ref None in
  String.iteri
    (fun i c ->
      if !bad = None then
        match c with
        | ' ' | '\n' | '\t' | '\r' -> ()
        | c ->
          (match digit_value c with
           | Some _ -> Buffer.add_char digits c
           | None ->
             bad :=
               Some
                 (Err.v ~pos:i Err.Bad_hex
                    (Printf.sprintf "invalid hex character %C" c))))
    s;
  match !bad with
  | Some e -> Error e
  | None ->
    let clean = Buffer.contents digits in
    let n = String.length clean in
    if n mod 2 <> 0 then
      Error
        (Err.v Err.Bad_hex
           (Printf.sprintf
              "hex input must have an even number of digits, got %d" n))
    else
      Ok
        (String.init (n / 2) (fun i ->
             let hi = Option.get (digit_value clean.[2 * i]) in
             let lo = Option.get (digit_value clean.[(2 * i) + 1]) in
             Char.chr ((hi lsl 4) lor lo)))

(* lower-case digits, two per byte, no separators *)
let hex_encode s =
  String.concat ""
    (List.init (String.length s) (fun i ->
         Printf.sprintf "%02x" (Char.code s.[i])))
