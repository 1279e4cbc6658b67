(* The per-request text routines against their references.  The served
   path prints floats, decodes hex and parses request lines without
   Printf; [Text_ref] keeps the Printf spellings they replaced.  Every
   input here must get the same bytes, the same value or the same
   error from both: the wire must not move by one byte. *)

open Facile_x86
module Json = Facile_obs.Json

let show s = Printf.sprintf "%S" s

(* A check answers [None] when both spellings agree, or what differs:
   qchecks report it as a counterexample, case lists as a failure. *)
let qcheck_of check x =
  match check x with None -> true | Some m -> QCheck.Test.fail_report m

let alcotest_of check x = Option.iter Alcotest.fail (check x)

(* ------------------------------------------------------------------ *)
(* Floats and the printer                                              *)

let float_edges =
  let pow2 k = Float.ldexp 1.0 k in
  [ 0.0; -0.0; 1.0; -1.0; 0.5; -0.5; 0.1; 1e15 -. 1.; -.(1e15 -. 1.); 1e15;
    -1e15; Float.pred 1e15; Float.succ 1e15; 1e15 +. 2.; 999999999999999.5;
    pow2 53; -.pow2 53; pow2 53 +. 2.; pow2 62; pow2 63; pow2 64; 1e16; 1e17;
    1e21; 1e22; 1e300; 1e-5; 1e-7; 123456.789; 1e-300; Float.min_float;
    Float.pred Float.min_float; Float.min_float /. 2.; 5e-324; -5e-324;
    Float.max_float; -.Float.max_float; Float.epsilon; Float.nan;
    Float.infinity; Float.neg_infinity; Float.pi; 2.0 /. 3.0; 4.35; 0.3 ]
  @ List.concat_map
      (fun k ->
        let k = float_of_int k in
        [ k /. 3.; k /. 7.; k *. 1e13 /. 3.; k *. 1e-9 /. 7. ])
      (List.init 201 (fun i -> i - 100))

let float_gen =
  QCheck.Gen.(
    frequency
      [ 3, float;
        (* any bit pattern: subnormals, nan payloads, huge exponents *)
        3, map Int64.float_of_bits int64;
        2, map float_of_int int;
        2, map float_of_int (-1_000_000 -- 1_000_000);
        2,
        map2
          (fun k d -> float_of_int k /. float_of_int d)
          (-100_000 -- 100_000) (1 -- 1000);
        1, map (fun e -> Float.ldexp 1.0 e) (-1074 -- 1023);
        1, oneofl float_edges ])

let float_diff f =
  let got = Json.float_repr f and want = Text_ref.float_repr f in
  if got = want then None
  else Some (Printf.sprintf "%h: float_repr %s, reference %s" f got want)

let qcheck_floats =
  QCheck.Test.make ~count:20_000 ~name:"float_repr matches the reference"
    (QCheck.make float_gen ~print:(Printf.sprintf "%h"))
    (qcheck_of float_diff)

(* Trees whose strings hold every kind of byte: quotes, backslashes,
   control characters and bytes above 0x7f. *)
let tree_gen =
  let open QCheck.Gen in
  let text =
    string_size
      ~gen:
        (frequency
           [ 4, printable; 2, char;
             1, oneofl [ '"'; '\\'; '\n'; '\000'; '\031'; '\127' ] ])
      (0 -- 12)
  in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [ return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map
                 (fun i -> Json.Int i)
                 (oneof [ int; small_signed_int; oneofl [ min_int; max_int; 0 ] ]);
               map (fun f -> Json.Float f) float_gen;
               map (fun s -> Json.Str s) text ]
         in
         if n <= 0 then leaf
         else
           frequency
             [ 3, leaf;
               1, map (fun l -> Json.Arr l) (list_size (0 -- 4) (self (n / 2)));
               1,
               map
                 (fun l -> Json.Obj l)
                 (list_size (0 -- 4) (pair text (self (n / 2)))) ])

let qcheck_printer =
  QCheck.Test.make ~count:3000 ~name:"to_string matches the reference printer"
    (QCheck.make tree_gen ~print:Text_ref.to_string)
    (fun v -> Json.to_string v = Text_ref.to_string v)

(* ------------------------------------------------------------------ *)
(* Hex                                                                 *)

let hex_bad =
  [ 'g'; 'x'; 'G'; 'z'; '\''; '\\'; '"'; '\000'; '\011'; '\127'; '\128';
    '\255'; '-'; '#' ]

let hex_gen =
  QCheck.Gen.(
    string_size
      ~gen:
        (frequency
           [ 12, oneofl (List.init 22 (fun i -> "0123456789abcdefABCDEF".[i]));
             3, oneofl [ ' '; '\n'; '\t'; '\r' ];
             1, oneofl hex_bad;
             1, char ])
      (0 -- 48))

let hex_diff s =
  let got = Hex.decode s and want = Text_ref.hex_decode s in
  let show_r = function
    | Ok b -> "Ok " ^ show b
    | Error e -> "Error " ^ Err.to_string e
  in
  if got = want then None
  else
    Some
      (Printf.sprintf "%s: decode %s, reference %s" (show s) (show_r got)
         (show_r want))

let qcheck_hex =
  QCheck.Test.make ~count:20_000 ~name:"Hex.decode matches the reference"
    (QCheck.make hex_gen ~print:show) (qcheck_of hex_diff)

let qcheck_encode =
  QCheck.Test.make ~count:2000 ~name:"Hex.encode matches the reference"
    (QCheck.make QCheck.Gen.(string_size (0 -- 64)) ~print:show)
    (fun s -> Hex.encode s = Text_ref.hex_encode s)

let hex_tests =
  [ Alcotest.test_case
      "a bad byte at every hex position decodes as the reference" `Quick
      (fun () ->
        List.iter
          (fun base ->
            for i = 0 to String.length base do
              List.iter
                (fun c ->
                  let s =
                    String.sub base 0 i ^ String.make 1 c
                    ^ String.sub base i (String.length base - i)
                  in
                  alcotest_of hex_diff s)
                (hex_bad @ [ '0'; 'f'; ' '; '\n' ])
            done;
            (* every prefix, so odd and even digit counts alike *)
            for i = 0 to String.length base do
              alcotest_of hex_diff (String.sub base 0 i)
            done)
          [ "4801d8"; "48 01 d8\n0f1f 40 00"; "\t0F1F8400000000004801D8\r\n";
            "" ]) ]

(* ------------------------------------------------------------------ *)
(* Parse                                                               *)

let parse_diff s =
  let got = Json.parse s and want = Text_ref.parse s in
  let show_r = function
    | Ok v -> Text_ref.to_string v
    | Error m -> "error " ^ m
  in
  if got = want then None
  else
    Some
      (Printf.sprintf "%s: parse %s, reference %s" (show s) (show_r got)
         (show_r want))

(* Lines that reach every branch of the parser: escapes of each kind,
   surrogate pairs and lone halves, numbers in every form, literals,
   nesting and whitespace. *)
let request_lines =
  [ {|{"id":1,"arch":"SKL","mode":"auto","hex":"4801d8"}|};
    {|{"id":-42,"asm":"imul rax, rbx\nadd rax, 1","mode":"loop"}|};
    {| { "id" : 7 , "hex" : "48 01 d8" , "arch" : "ICL" } |};
    {|{"id":"a\"b\\c\/d\b\f\n\r\t","hex":"90"}|};
    {|{"id":"Aé€😀\ud800x\udc00𝄞","hex":"90"}|};
    {|{"id":"\ud83dA","hex":"90"}|};
    {|{"id":[1,-0,0.5,-1.25e-3,1E+2,2e-0,000123,12345678901234567890,|}
    ^ {|-9223372036854775808,4611686018427387903,4611686018427387904],|}
    ^ {|"cmd":"stats"}|};
    {|[true,false,null,{},[],{"a":{"b":[{}]}},"",1e999,-1e999]|};
    {|{"id":123456789012345678,"proto":1,"cmd":"version"}|};
    "\"raw\001control\"";
    "{\"k\":\"tab\there\"}";
    "[1,2,3]  \n\t\r" ]

let nesting =
  List.concat_map
    (fun k ->
      [ String.make k '[' ^ String.make k ']';
        String.make k '[' ^ "1" ^ String.make k ']';
        String.concat "" (List.init k (fun _ -> {|{"a":|})) ^ "0"
        ^ String.make k '}';
        String.make k '[' ])
    [ 1; 2; 255; 256; 257; 258; 300 ]

let parse_tests =
  [ Alcotest.test_case "request lines cut at every byte parse as the reference"
      `Quick (fun () ->
        List.iter
          (fun line ->
            for i = 0 to String.length line do
              alcotest_of parse_diff (String.sub line 0 i);
              alcotest_of parse_diff
                (String.sub line i (String.length line - i))
            done)
          request_lines);
    Alcotest.test_case "deep nesting parses as the reference" `Quick
      (fun () -> List.iter (alcotest_of parse_diff) nesting) ]

let json_char =
  let alphabet =
    {|{}[]":,\/u0123456789abcdefABCDEF.-+eEtrufalsn xq|}
    ^ " \t\n\r\000\001\031\127\200\255"
  in
  QCheck.Gen.oneofl (List.init (String.length alphabet) (String.get alphabet))

let mutate_gen =
  QCheck.Gen.(
    let* line = oneofl request_lines in
    let* edits =
      list_size (1 -- 3)
        (triple (0 -- 2) (0 -- (String.length line - 1)) json_char)
    in
    return
      (List.fold_left
         (fun s (op, i, c) ->
           let i = min i (String.length s) in
           let tail k = String.sub s k (String.length s - k) in
           match op with
           | 0 when i < String.length s ->
             String.sub s 0 i ^ String.make 1 c ^ tail (i + 1)
           | 1 -> String.sub s 0 i ^ String.make 1 c ^ tail i
           | _ when i < String.length s -> String.sub s 0 i ^ tail (i + 1)
           | _ -> s)
         line edits))

let qcheck_parse_bytes =
  QCheck.Test.make ~count:5000 ~name:"arbitrary bytes parse as the reference"
    (QCheck.make QCheck.Gen.(string_size (0 -- 40)) ~print:show)
    (qcheck_of parse_diff)

let qcheck_parse_alphabet =
  QCheck.Test.make ~count:20_000
    ~name:"JSON-alphabet text parses as the reference"
    (QCheck.make QCheck.Gen.(string_size ~gen:json_char (0 -- 24)) ~print:show)
    (qcheck_of parse_diff)

let qcheck_parse_mutated =
  QCheck.Test.make ~count:20_000
    ~name:"mutated request lines parse as the reference"
    (QCheck.make mutate_gen ~print:show) (qcheck_of parse_diff)

let suite =
  [ ( "text",
      [ Alcotest.test_case "edge floats print as the reference"
          `Quick (fun () -> List.iter (alcotest_of float_diff) float_edges);
        QCheck_alcotest.to_alcotest qcheck_floats;
        QCheck_alcotest.to_alcotest qcheck_printer ]
      @ hex_tests
      @ [ QCheck_alcotest.to_alcotest qcheck_hex;
          QCheck_alcotest.to_alcotest qcheck_encode ]
      @ parse_tests
      @ [ QCheck_alcotest.to_alcotest qcheck_parse_bytes;
          QCheck_alcotest.to_alcotest qcheck_parse_alphabet;
          QCheck_alcotest.to_alcotest qcheck_parse_mutated ] ) ]
