(* Hex machine-code decoding, shared by the CLI and the serving
   layer.  Whitespace is ignored; errors carry the byte offset of the
   offending character in the input as the user wrote it. *)

let digits = "0123456789abcdef"

(* lower-case digits, two per byte, no separators *)
let encode s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let b = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set out (2 * i) digits.[b lsr 4];
    Bytes.unsafe_set out ((2 * i) + 1) digits.[b land 15]
  done;
  Bytes.unsafe_to_string out

(* a digit's value, -1 for any other character *)
let digit_value = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* One pass: each byte is written into the result when its second
   digit arrives.  Input without whitespace fills the result exactly;
   otherwise the written prefix is copied out. *)
let decode s : (string, Err.t) result =
  let len = String.length s in
  let out = Bytes.create (len / 2) in
  let i = ref 0 and n = ref 0 and hi = ref 0 and bad = ref (-1) in
  while !i < len && !bad < 0 do
    (match String.unsafe_get s !i with
     | ' ' | '\n' | '\t' | '\r' -> ()
     | c ->
       let d = digit_value c in
       if d < 0 then bad := !i
       else begin
         if !n land 1 = 0 then hi := d
         else
           Bytes.unsafe_set out (!n lsr 1) (Char.unsafe_chr ((!hi lsl 4) lor d));
         incr n
       end);
    incr i
  done;
  if !bad >= 0 then
    Error
      (Err.v ~pos:!bad Err.Bad_hex
         ("invalid hex character '" ^ Char.escaped s.[!bad] ^ "'"))
  else if !n land 1 <> 0 then
    Error
      (Err.v Err.Bad_hex
         ("hex input must have an even number of digits, got "
          ^ string_of_int !n))
  else if !n = 2 * Bytes.length out then Ok (Bytes.unsafe_to_string out)
  else Ok (Bytes.sub_string out 0 (!n / 2))
