(* The decoder's canonical-form contract, end to end: which spellings
   it refuses and at which byte, that a refusal is a typed encode_error
   on the wire and on the command line, and that the strict decoder
   agrees with a lenient decode followed by a re-encode
   ([Reencode_decode]) on mutated and random bytes. *)

open Facile_x86
module Json = Facile_obs.Json
module Serve = Facile_engine.Serve
module Genblock = Facile_bhive.Genblock
module Prng = Facile_bhive.Prng

let bytes_of_hex h =
  match Hex.decode h with
  | Ok s -> s
  | Error e -> Alcotest.failf "bad hex %S: %s" h (Err.to_string e)

(* Bytes that decode to a supported instruction the encoder spells
   otherwise, each with the reason it is refused. *)
let non_canonical =
  [ "03c0", "register operands in the reverse direction (01 c0)";
    "4001c0", "a REX byte with no bits, not needed";
    "666601c0", "a repeated 66H prefix";
    "f201c0", "an F2 prefix ADD does not use";
    "4850", "REX.W on PUSH, which does not use it";
    "8bc0", "MOV register form in the reverse direction (89 c0)";
    "81c001000000", "imm32 where imm8 fits (83 c0 01)";
    "69c001000000", "imm32 where imm8 fits (6b c0 01)";
    "48b80100000000000000", "imm64 that fits 32 bits (48 c7 c0)";
    "c7c001000000", "C7 /0 for a 32-bit register (b8)";
    "e900000000", "rel32 where rel8 fits (eb 00)";
    "0f8400000000", "rel32 where rel8 fits (74 00)";
    "8b4000", "a zero disp8 (8b 00)";
    "8b0420", "an unneeded SIB byte (8b 00)";
    "0f94c8", "a nonzero reg field in SETcc";
    "0f29c8", "MOVAPS store form between registers (0f 28 c1)";
    "c4e17858c1", "a 3-byte VEX where 2 bytes suffice (c5 f8 58 c1)";
    "63c0", "MOVSXD without REX.W";
    "0f1f08", "a nonzero reg field in NOPL";
    "66480f6e00", "MOVQ with memory through the MOVD opcode (f3 0f 7e)" ]

(* canonical twins of the rows above: each must decode and predict *)
let canonical =
  [ "01c0"; "50"; "89c0"; "83c001"; "6bc001"; "48c7c001000000"; "b801000000";
    "eb00"; "7400"; "8b00"; "8b0424"; "0f94c0"; "0f28c1"; "c5f858c1";
    "4863c0"; "0f1f00"; "f30f7e00" ]

(* register forms of MOVBE and NOPL, which the encoder cannot emit *)
let unsupported_register_forms = [ "0f38f0c0"; "0f1fc0" ]

let with_serve f =
  let t =
    Serve.of_config { Serve.default_config with Serve.workers = Some 1 }
  in
  Fun.protect ~finally:(fun () -> Serve.shutdown t) (fun () -> f t)

let serve_hex t hex =
  Serve.handle_line t
    (Json.to_string (Json.Obj [ "arch", Json.Str "SKL"; "hex", Json.Str hex ]))

let error_field name resp =
  Option.bind (Json.member "error" resp) (Json.member name)

let error_kind resp = Option.bind (error_field "kind" resp) Json.string_opt

let error_pos resp =
  match error_field "pos" resp with Some (Json.Int p) -> Some p | _ -> None

let decode_error hex =
  match Decode.decode_block (bytes_of_hex hex) with
  | _ -> None
  | exception Decode.Decode_error (_, pos) -> Some pos

let contract_tests =
  [ Alcotest.test_case "non-canonical spellings answer encode_error" `Quick
      (fun () ->
        with_serve @@ fun t ->
        List.iter
          (fun (hex, why) ->
            let resp = serve_hex t hex in
            Alcotest.(check (option string))
              (Printf.sprintf "%s: %s" hex why) (Some "encode_error")
              (error_kind resp);
            Alcotest.(check (option int)) (hex ^ " pos") (Some 0)
              (error_pos resp);
            Alcotest.(check (option int)) (hex ^ " Decode_error") (Some 0)
              (decode_error hex))
          non_canonical);
    Alcotest.test_case "canonical twins predict" `Quick (fun () ->
        with_serve @@ fun t ->
        List.iter
          (fun hex ->
            Alcotest.(check bool) (hex ^ " has cycles") true
              (Json.member "cycles" (serve_hex t hex) <> None);
            Alcotest.(check (option int)) (hex ^ " decodes") None
              (decode_error hex))
          canonical);
    Alcotest.test_case "the offending instruction's offset is reported"
      `Quick (fun () ->
        with_serve @@ fun t ->
        (* nop, then a reversed add *)
        Alcotest.(check (option int)) "9003c0" (Some 1)
          (error_pos (serve_hex t "9003c0"));
        (* a reversed add before an unknown opcode: byte order wins *)
        Alcotest.(check (option int)) "03c00fb8c0" (Some 0)
          (error_pos (serve_hex t "03c00fb8c0"));
        Alcotest.(check (option int)) "Decode_error 9003c0" (Some 1)
          (decode_error "9003c0"));
    Alcotest.test_case "register-form MOVBE and NOPL answer encode_error"
      `Quick (fun () ->
        with_serve @@ fun t ->
        List.iter
          (fun hex ->
            Alcotest.(check (option string)) hex (Some "encode_error")
              (error_kind (serve_hex t hex)))
          unsupported_register_forms) ]

(* ------------------------------------------------------------------ *)
(* Differential: the strict decoder against decode-then-re-encode.     *)

let reference s =
  match Reencode_decode.decode_block s with
  | layouts -> Some layouts
  | exception (Decode.Decode_error _ | Encode.Unencodable _) -> None

(* the only exception the strict decoder may raise is Decode_error *)
let strict s =
  match Decode.decode_block s with
  | layouts -> Some layouts
  | exception Decode.Decode_error _ -> None

let agrees s = reference s = strict s

let prefix_bytes =
  [ 0x66; 0xF2; 0xF3; 0xC4; 0xC5; 0x0F ] @ List.init 16 (fun k -> 0x40 + k)

(* Every one-byte substitution, deletion and truncation of [b], and
   every insertion of a prefix-like byte at each position. *)
let mutations b =
  let n = String.length b in
  (* [s] in place of the [drop] bytes at [i] *)
  let splice i drop s =
    String.sub b 0 i ^ s ^ String.sub b (i + drop) (n - i - drop)
  in
  let chr v = String.make 1 (Char.chr v) in
  List.concat
    [ List.concat
        (List.init n (fun i -> List.init 256 (fun v -> splice i 1 (chr v))));
      List.init n (fun i -> splice i 1 "");
      List.init n (fun i -> String.sub b 0 i);
      List.concat
        (List.init (n + 1) (fun i ->
             List.map (fun p -> splice i 0 (chr p)) prefix_bytes)) ]

let first_disagreement b = List.find_opt (fun s -> not (agrees s)) (mutations b)

let gen_encoded =
  let open QCheck in
  make
    ~print:(fun (seed, p, len) ->
      Printf.sprintf "seed=%d profile=%s len=%d" seed
        (Genblock.profile_name p) len)
    Gen.(
      triple (int_bound 1_000_000) (oneofl Genblock.all_profiles)
        (int_range 1 3))

let qcheck_mutations =
  QCheck.Test.make ~count:150
    ~name:"mutated Genblock: strict = lenient decode + re-encode"
    gen_encoded
    (fun (seed, profile, len) ->
      let rng = Prng.create seed in
      let insts = Genblock.body rng profile ~allow_fma:true ~len in
      let bytes = fst (Encode.encode_block insts) in
      match first_disagreement bytes with
      | None -> true
      | Some s -> QCheck.Test.fail_reportf "disagree on %s" (Hex.encode s))

let gen_bytes =
  (* half uniform bytes, half drawn from prefixes, escapes and
     ModRM/SIB values that select the interesting paths *)
  let interesting =
    [ 0x66; 0xF2; 0xF3; 0x40; 0x41; 0x44; 0x48; 0x4C; 0xC4; 0xC5; 0x0F;
      0x38; 0x3A; 0x00; 0xFF; 0xC0; 0x24; 0x04; 0x05; 0x25 ]
  in
  let open QCheck in
  make ~print:Hex.encode
    Gen.(
      string_size ~gen:(frequency
                          [ 1, char; 1, map Char.chr (oneofl interesting) ])
        (int_range 0 24))

let qcheck_random =
  QCheck.Test.make ~count:20000
    ~name:"random bytes: strict = lenient decode + re-encode"
    gen_bytes agrees

(* ------------------------------------------------------------------ *)
(* Command line (subprocess)                                           *)

(* The binary is a declared dune dep of the test; see test_store. *)
let facile_exe = "../bin/facile.exe"

let with_temp_file contents f =
  let path = Filename.temp_file "facile_codec" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  f path

(* exit code and stderr of one run, stdin from [stdin] *)
let run_cli ?(stdin = "/dev/null") args =
  let err = Filename.temp_file "facile_codec" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove err) @@ fun () ->
  let rc =
    Sys.command
      (Printf.sprintf "%s %s <%s >/dev/null 2>%s" facile_exe args
         (Filename.quote stdin) (Filename.quote err))
  in
  (rc, In_channel.with_open_bin err In_channel.input_all)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let cli_tests =
  [ Alcotest.test_case "register-form MOVBE and NOPL exit 7" `Quick
      (fun () ->
        List.iter
          (fun hex ->
            with_temp_file (hex ^ "\n") @@ fun path ->
            let rc, _ = run_cli ~stdin:path "predict --hex" in
            Alcotest.(check int) ("predict --hex " ^ hex) 7 rc;
            let rc, _ = run_cli ("batch " ^ Filename.quote path) in
            Alcotest.(check int) ("batch " ^ hex) 7 rc)
          unsupported_register_forms);
    Alcotest.test_case "a missing or directory FILE exits 1" `Quick (fun () ->
        let missing =
          Filename.concat (Filename.get_temp_dir_name ()) "facile-no-such-file"
        in
        List.iter
          (fun cmd ->
            List.iter
              (fun path ->
                let rc, err = run_cli (cmd ^ " " ^ Filename.quote path) in
                let what = Printf.sprintf "%s %s" cmd path in
                Alcotest.(check int) what 1 rc;
                Alcotest.(check bool) (what ^ ": " ^ err) true
                  (starts_with ~prefix:"error: " err))
              [ missing; Filename.get_temp_dir_name () ])
          [ "predict"; "batch"; "explain" ]) ]

let suite =
  [ "x86.canonical", contract_tests;
    "x86.differential",
    [ QCheck_alcotest.to_alcotest qcheck_mutations;
      QCheck_alcotest.to_alcotest qcheck_random ];
    "cli.errors", cli_tests ]
