(* Hex machine-code decoding, shared by the CLI and the serving
   layer.  Whitespace is ignored; errors carry the byte offset of the
   offending character in the input as the user wrote it. *)

(* lower-case digits, two per byte, no separators *)
let encode s =
  String.concat ""
    (List.init (String.length s) (fun i ->
         Printf.sprintf "%02x" (Char.code s.[i])))

let digit_value c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let decode s : (string, Err.t) result =
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
