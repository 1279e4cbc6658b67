(* Binary record codec.  Layout (all little-endian):

     u8   arch code            (SNB=0 .. RKL=8, declaration order)
     u8   mode                 (0 = unroll, 1 = loop, 2 = auto; as
                                requested, not as resolved)
     u32  insts                (the block's instruction count)
     u32  len(bytes) | bytes   (the block's machine code)
     f64  cycles               (IEEE-754 bits)
     u8   fe_path              (decoders=0, lsd=1, dsb=2, none=3)
     u8   n | n * u8           (bottleneck component codes)
     u8   n | n * (u8, f64)    (component value table)

   The encoder writes both lists in [Model.all_components] order, so
   the value table always has seven entries.  A decoder, binary or
   NDJSON, accepts either list in any order, but a value table must
   name each of the seven components exactly once and a bottleneck
   list may name each at most once: anything else is a bad record,
   since a prediction keeps one bound per component and its
   bottlenecks as a set.

   The numeric codes are wire format: changing any of them requires a
   segment format-version bump (Segment.version). *)

open Facile_uarch
open Facile_core
module Json = Facile_obs.Json

type record = {
  arch : Config.arch;
  mode : Model.notion;
  insts : int;
  bytes : string;
  pred : Model.prediction;
}

let to_memo r = ((r.arch, r.mode, r.insts, r.bytes), r.pred)

let of_memo ((arch, mode, insts, bytes), pred) =
  { arch; mode; insts; bytes; pred }

(* ----- wire codes ----- *)

let arch_code = function
  | Config.SNB -> 0 | Config.IVB -> 1 | Config.HSW -> 2 | Config.BDW -> 3
  | Config.SKL -> 4 | Config.CLX -> 5 | Config.ICL -> 6 | Config.TGL -> 7
  | Config.RKL -> 8

let arch_of_code = function
  | 0 -> Some Config.SNB | 1 -> Some Config.IVB | 2 -> Some Config.HSW
  | 3 -> Some Config.BDW | 4 -> Some Config.SKL | 5 -> Some Config.CLX
  | 6 -> Some Config.ICL | 7 -> Some Config.TGL | 8 -> Some Config.RKL
  | _ -> None

let component_code = function
  | Model.Predec -> 0 | Model.Dec -> 1 | Model.DSB -> 2 | Model.LSD -> 3
  | Model.Issue -> 4 | Model.Ports -> 5 | Model.Precedence -> 6

let component_of_code = function
  | 0 -> Some Model.Predec | 1 -> Some Model.Dec | 2 -> Some Model.DSB
  | 3 -> Some Model.LSD | 4 -> Some Model.Issue | 5 -> Some Model.Ports
  | 6 -> Some Model.Precedence
  | _ -> None

let fe_code = function
  | Model.FE_decoders -> 0 | Model.FE_lsd -> 1 | Model.FE_dsb -> 2
  | Model.FE_none -> 3

let mode_code = function `Unrolled -> 0 | `Loop -> 1 | `Auto -> 2

let mode_of_code = function
  | 0 -> Some `Unrolled | 1 -> Some `Loop | 2 -> Some `Auto
  | _ -> None

let fe_of_code = function
  | 0 -> Some Model.FE_decoders | 1 -> Some Model.FE_lsd
  | 2 -> Some Model.FE_dsb | 3 -> Some Model.FE_none
  | _ -> None

(* ----- bit-exact equality ----- *)

let float_bits_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

let pred_equal (a : Model.prediction) (b : Model.prediction) =
  float_bits_equal a.Model.cycles b.Model.cycles
  && a.Model.fe_path = b.Model.fe_path
  && a.Model.bottleneck_mask = b.Model.bottleneck_mask
  && List.for_all
       (fun c -> float_bits_equal (Model.value a c) (Model.value b c))
       Model.all_components

(* ----- the decoders' component rule -----

   Both decoders read a prediction's two component lists one entry at a
   time into a tally, one int, by [Model.component_index]: bits 0-6 are
   the components named so far, bits 7-13 those named more than once,
   and from bit 14 up, three bits each, the components in the reverse
   order of their first naming, as index + 1.  A list that repeats
   components is reported by the one it names first. *)

let tally t i =
  let bit = 1 lsl i in
  if t land bit <> 0 then t lor (bit lsl 7)
  else ((((t lsr 14) lsl 3) lor (i + 1)) lsl 14) lor (t land 0x3FFF) lor bit

let named t = t land 0x7F
let repeated t = (t lsr 7) land 0x7F

let component_of_index i = List.nth Model.all_components i

(* The first-named of the components [t] names more than once. *)
let first_repeat t =
  let rec earliest order found =
    if order = 0 then found
    else
      let i = (order land 7) - 1 in
      earliest (order lsr 3)
        (if repeated t land (1 lsl i) <> 0 then i else found)
  in
  Model.component_name (component_of_index (earliest (t lsr 14) 0))

let rec first_unset mask i =
  if mask land (1 lsl i) = 0 then i else first_unset mask (i + 1)

(* What is wrong with a prediction whose bottleneck list and value
   table tally as given, if anything (see the layout comment above):
   the checks run in this order in both decoders. *)
let component_error ~bottlenecks ~values =
  if repeated bottlenecks <> 0 then
    Some
      (Printf.sprintf "bottleneck %s listed twice" (first_repeat bottlenecks))
  else if repeated values <> 0 then
    Some (Printf.sprintf "value of %s given twice" (first_repeat values))
  else if named values <> 0x7F then
    Some
      (Printf.sprintf "no value for %s"
         (Model.component_name
            (component_of_index (first_unset (named values) 0))))
  else None

(* ----- encoding ----- *)

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let add_u32 b v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Codec.add_u32";
  add_u8 b v;
  add_u8 b (v lsr 8);
  add_u8 b (v lsr 16);
  add_u8 b (v lsr 24)

let add_i64 b (v : int64) =
  for i = 0 to 7 do
    add_u8 b (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done

let add_f64 b f = add_i64 b (Int64.bits_of_float f)

let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let encode r =
  let b = Buffer.create (64 + String.length r.bytes) in
  add_u8 b (arch_code r.arch);
  add_u8 b (mode_code r.mode);
  add_u32 b r.insts;
  add_str b r.bytes;
  let p = r.pred in
  add_f64 b p.Model.cycles;
  add_u8 b (fe_code p.Model.fe_path);
  let bottlenecks = Model.bottlenecks p in
  add_u8 b (List.length bottlenecks);
  List.iter (fun c -> add_u8 b (component_code c)) bottlenecks;
  add_u8 b (List.length Model.all_components);
  List.iter
    (fun c ->
      add_u8 b (component_code c);
      add_f64 b (Model.value p c))
    Model.all_components;
  Buffer.contents b

(* ----- decoding ----- *)

exception Bad of string

(* The decoder's cursor over one record, [s.[pos .. lim - 1]]; the
   field readers raise [Bad] with the decoder's error. *)
type cursor = {
  s : string;
  lim : int;
  mutable pos : int; (* lint: unguarded — a cursor lives in one decode call *)
}

let need c k what =
  if c.pos + k > c.lim then raise (Bad (Printf.sprintf "truncated %s" what))

let u8 c what =
  need c 1 what;
  let v = Char.code (String.unsafe_get c.s c.pos) in
  c.pos <- c.pos + 1;
  v

let u32 c what =
  need c 4 what;
  let v = Int32.to_int (String.get_int32_le c.s c.pos) land 0xFFFFFFFF in
  c.pos <- c.pos + 4;
  v

(* inlined, so that a bound goes into its array unboxed *)
let[@inline] f64 c what =
  need c 8 what;
  let p = c.pos in
  c.pos <- p + 8;
  Int64.float_of_bits (String.get_int64_le c.s p)

let str c what =
  let len = u32 c what in
  need c len what;
  let v = String.sub c.s c.pos len in
  c.pos <- c.pos + len;
  v

(* a component code, as the component's index *)
let component c what =
  match component_of_code (u8 c what) with
  | Some comp -> Model.component_index comp
  | None -> raise (Bad (Printf.sprintf "unknown component code in %s" what))

let record c =
  let arch =
    match arch_of_code (u8 c "arch") with
    | Some a -> a
    | None -> raise (Bad "unknown arch code")
  in
  let mode =
    let m = u8 c "mode" in
    match mode_of_code m with
    | Some m -> m
    | None -> raise (Bad (Printf.sprintf "unknown mode code %d" m))
  in
  let insts = u32 c "insts" in
  let bytes = str c "bytes" in
  let cycles = f64 c "cycles" in
  let fe_path =
    match fe_of_code (u8 c "fe_path") with
    | Some f -> f
    | None -> raise (Bad "unknown fe_path code")
  in
  let bottlenecks = ref 0 in
  for _ = 1 to u8 c "bottlenecks" do
    bottlenecks := tally !bottlenecks (component c "bottlenecks")
  done;
  let bounds = Array.make 7 0.0 in
  let values = ref 0 in
  for _ = 1 to u8 c "values" do
    let i = component c "values" in
    bounds.(i) <- f64 c "values";
    values := tally !values i
  done;
  if c.pos <> c.lim then
    raise (Bad (Printf.sprintf "%d trailing bytes after record" (c.lim - c.pos)));
  match component_error ~bottlenecks:!bottlenecks ~values:!values with
  | Some m -> raise (Bad m)
  | None ->
    let pred =
      Model.of_bounds ~cycles ~bounds ~bottleneck_mask:(named !bottlenecks)
        ~fe_path
    in
    { arch; mode; insts; bytes; pred }

let decode_sub s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Codec.decode_sub";
  match record { s; lim = off + len; pos = off } with
  | r -> Ok r
  | exception Bad m -> Error m

let decode s = decode_sub s 0 (String.length s)

(* ----- NDJSON exchange ----- *)

let to_json r =
  Json.Obj
    [ "arch", Json.Str (Config.by_arch r.arch).Config.abbrev;
      "mode", Json.Str (Model.notion_name r.mode);
      "insts", Json.Int r.insts;
      "hex", Json.Str (Facile_x86.Hex.encode r.bytes);
      "prediction", Model.prediction_to_json r.pred ]

let component_of_name s =
  List.find_opt (fun c -> Model.component_name c = s) Model.all_components

let fe_of_name s =
  List.find_opt
    (fun f -> Model.fe_path_name f = s)
    [ Model.FE_decoders; Model.FE_lsd; Model.FE_dsb; Model.FE_none ]

let of_json j =
  let ( let* ) = Result.bind in
  let str_field name =
    match Option.bind (Json.member name j) Json.string_opt with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing or non-string field %S" name)
  in
  let* arch_s = str_field "arch" in
  let* arch =
    match Config.of_abbrev arch_s with
    | Some cfg -> Ok cfg.Config.arch
    | None -> Error (Printf.sprintf "unknown arch %S" arch_s)
  in
  let* mode_s = str_field "mode" in
  let* mode =
    Model.notion_of_string mode_s
    |> Result.map_error (fun _ -> Printf.sprintf "unknown mode %S" mode_s)
  in
  let* insts =
    match Option.bind (Json.member "insts" j) Json.int_opt with
    | Some i when i >= 0 && i <= 0xFFFFFFFF -> Ok i
    | _ -> Error "missing or out-of-range int field \"insts\""
  in
  let* hex = str_field "hex" in
  let* bytes =
    match Facile_x86.Hex.decode hex with
    | Ok b -> Ok b
    | Error e -> Error ("bad hex: " ^ e.Facile_x86.Err.msg)
  in
  let* pj =
    match Json.member "prediction" j with
    | Some p -> Ok p
    | None -> Error "missing field \"prediction\""
  in
  let* cycles =
    match Option.bind (Json.member "cycles" pj) Json.float_opt with
    | Some f -> Ok f
    | None -> Error "prediction: missing \"cycles\""
  in
  let* fe_path =
    match
      Option.bind
        (Option.bind (Json.member "fe_path" pj) Json.string_opt)
        fe_of_name
    with
    | Some f -> Ok f
    | None -> Error "prediction: missing or unknown \"fe_path\""
  in
  let* bottlenecks =
    match Json.member "bottlenecks" pj with
    | Some (Json.Arr items) ->
      List.fold_left
        (fun acc item ->
          let* t = acc in
          match Option.bind (Json.string_opt item) component_of_name with
          | Some c -> Ok (tally t (Model.component_index c))
          | None -> Error "prediction: unknown bottleneck component")
        (Ok 0) items
    | _ -> Error "prediction: missing \"bottlenecks\" array"
  in
  let bounds = Array.make 7 0.0 in
  let* values =
    match Json.member "values" pj with
    | Some (Json.Obj kvs) ->
      List.fold_left
        (fun acc (name, v) ->
          let* t = acc in
          match component_of_name name, Json.float_opt v with
          | Some c, Some f ->
            let i = Model.component_index c in
            bounds.(i) <- f;
            Ok (tally t i)
          | _ -> Error (Printf.sprintf "prediction: bad value entry %S" name))
        (Ok 0) kvs
    | _ -> Error "prediction: missing \"values\" object"
  in
  match component_error ~bottlenecks ~values with
  | Some m -> Error ("prediction: " ^ m)
  | None ->
    let pred =
      Model.of_bounds ~cycles ~bounds ~bottleneck_mask:(named bottlenecks)
        ~fe_path
    in
    Ok { arch; mode; insts; bytes; pred }
