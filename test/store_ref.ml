(* The store's readers as they were written before a load read each
   frame in place, kept verbatim as references: the differential
   qchecks in test_store.ml require [Crc32.sub] and [Codec.decode_sub]
   to answer exactly what these answer, on every input. *)

open Facile_uarch
open Facile_core
module Codec = Facile_store.Codec

(* ----- CRC-32, one byte per step ----- *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_sub s off len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Crc32.sub";
  let t = Lazy.force table in
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := t.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* ----- the record decoder, with a closure per field reader ----- *)

let arch_of_code = function
  | 0 -> Some Config.SNB | 1 -> Some Config.IVB | 2 -> Some Config.HSW
  | 3 -> Some Config.BDW | 4 -> Some Config.SKL | 5 -> Some Config.CLX
  | 6 -> Some Config.ICL | 7 -> Some Config.TGL | 8 -> Some Config.RKL
  | _ -> None

let component_of_code = function
  | 0 -> Some Model.Predec | 1 -> Some Model.Dec | 2 -> Some Model.DSB
  | 3 -> Some Model.LSD | 4 -> Some Model.Issue | 5 -> Some Model.Ports
  | 6 -> Some Model.Precedence
  | _ -> None

let mode_of_code = function
  | 0 -> Some `Unrolled | 1 -> Some `Loop | 2 -> Some `Auto
  | _ -> None

let fe_of_code = function
  | 0 -> Some Model.FE_decoders | 1 -> Some Model.FE_lsd
  | 2 -> Some Model.FE_dsb | 3 -> Some Model.FE_none
  | _ -> None

let prediction ~cycles ~fe_path ~bottlenecks ~values =
  let twice cs =
    List.find_opt (fun c -> List.length (List.filter (( = ) c) cs) > 1) cs
  in
  let name = Model.component_name in
  match
    ( twice bottlenecks,
      twice (List.map fst values),
      List.find_opt (fun c -> not (List.mem_assoc c values))
        Model.all_components )
  with
  | Some c, _, _ -> Error (Printf.sprintf "bottleneck %s listed twice" (name c))
  | _, Some c, _ -> Error (Printf.sprintf "value of %s given twice" (name c))
  | _, _, Some c -> Error (Printf.sprintf "no value for %s" (name c))
  | None, None, None ->
    Ok
      (Model.make ~cycles ~value:(fun c -> List.assoc c values) ~bottlenecks
         ~fe_path)

exception Bad of string

let decode s =
  let n = String.length s in
  let pos = ref 0 in
  let need k what =
    if !pos + k > n then raise (Bad (Printf.sprintf "truncated %s" what))
  in
  let u8 what =
    need 1 what;
    let v = Char.code s.[!pos] in
    incr pos;
    v
  in
  let u32 what =
    need 4 what;
    let b i = Char.code s.[!pos + i] in
    let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
    pos := !pos + 4;
    v
  in
  let i64 what =
    need 8 what;
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8)
             (Int64.of_int (Char.code s.[!pos + i]))
    done;
    pos := !pos + 8;
    !v
  in
  let f64 what = Int64.float_of_bits (i64 what) in
  let str what =
    let len = u32 what in
    need len what;
    let v = String.sub s !pos len in
    pos := !pos + len;
    v
  in
  match
    let arch =
      match arch_of_code (u8 "arch") with
      | Some a -> a
      | None -> raise (Bad "unknown arch code")
    in
    let mode =
      let c = u8 "mode" in
      match mode_of_code c with
      | Some m -> m
      | None -> raise (Bad (Printf.sprintf "unknown mode code %d" c))
    in
    let insts = u32 "insts" in
    let bytes = str "bytes" in
    let cycles = f64 "cycles" in
    let fe_path =
      match fe_of_code (u8 "fe_path") with
      | Some f -> f
      | None -> raise (Bad "unknown fe_path code")
    in
    let component what =
      match component_of_code (u8 what) with
      | Some c -> c
      | None -> raise (Bad (Printf.sprintf "unknown component code in %s" what))
    in
    let bottlenecks =
      List.init (u8 "bottlenecks") (fun _ -> component "bottlenecks")
    in
    let values =
      List.init (u8 "values") (fun _ ->
          let c = component "values" in
          (c, f64 "values"))
    in
    if !pos <> n then
      raise (Bad (Printf.sprintf "%d trailing bytes after record" (n - !pos)));
    match prediction ~cycles ~fe_path ~bottlenecks ~values with
    | Ok pred -> { Codec.arch; mode; insts; bytes; pred }
    | Error m -> raise (Bad m)
  with
  | r -> Ok r
  | exception Bad m -> Error m
