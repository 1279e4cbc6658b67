open Facile_x86
open Facile_db
open Facile_uarch

type entry = {
  inst : Inst.t;
  layout : Encode.layout;
  desc : Db.t;
  fuses_with_next : bool;
  fused_into_prev : bool;
}

type logical = {
  insts : Inst.t list;
  fused_uops : int;
  issued_uops : int;
  dispatched : Db.uop list;
  latency : int;
  complex_decode : bool;
  available_simple_dec : int;
  eliminated : bool;
  zero_idiom : bool;
  is_branch : bool;
  macro_fused : bool;
  reads : Semantics.resource list;
  writes : Semantics.resource list;
  loads : bool;
}

(* The flattened view of the block: everything the component predictors
   read per logical instruction / per entry, decoded once at build time
   into plain arrays so the hot path never walks the lists above.

   Invariant: [flat] mirrors [logicals]/[entries] except for per-logical
   [latency], which [Precedence] deliberately re-reads from [logicals]
   (baseline ablations build [{ b with logicals }] blocks with perturbed
   latencies and must see them). Any other [{ b with ... }] update would
   desynchronize the two views. *)
type flat = {
  l_fused : int array;
  l_complex : bool array;
  l_avail : int array;
  l_branch : bool array;
  l_mfused : bool array;
  l_addr_mask : int array;
  port_masks : Port.t array;
  e_last : int array;
  e_opc : int array;
  e_lcp : bool array;
  tot_fused : int;
  tot_issued : int;
  ends_branch : bool;
  jcc_affected : bool;
}

type t = {
  cfg : Config.t;
  entries : entry list;
  logicals : logical list;
  bytes : string;
  len : int;
  flat : flat;
}

let logical_of_entry (e : entry) =
  let d = e.desc in
  { insts = [ e.inst ];
    fused_uops = d.Db.fused_uops;
    issued_uops = d.Db.issued_uops;
    dispatched = d.Db.dispatched;
    latency = d.Db.latency;
    complex_decode = d.Db.complex_decode;
    available_simple_dec = d.Db.available_simple_dec;
    eliminated = d.Db.eliminated;
    zero_idiom = d.Db.zero_idiom;
    is_branch = Inst.is_branch e.inst;
    macro_fused = false;
    reads = (if d.Db.zero_idiom then [] else Semantics.reads e.inst);
    writes = Semantics.writes e.inst;
    loads = Inst.loads e.inst }

(* A macro-fused pair: one fused-domain µop executing on the branch
   unit; the first instruction's load µop (if any) stays micro-fused. *)
let logical_of_pair cfg (first : entry) (jcc : entry) =
  let d = first.desc in
  let load_uops =
    List.filter (fun u -> u.Db.kind = Db.Load) d.Db.dispatched
  in
  let branch_uop =
    { Db.kind = Db.Compute; ports = cfg.Config.pm.Config.branch }
  in
  let reads_first = Semantics.reads first.inst in
  let writes_first = Semantics.writes first.inst in
  let reads_jcc =
    List.filter
      (fun r -> not (List.mem r writes_first))
      (Semantics.reads jcc.inst)
  in
  let dedup l =
    List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l
    |> List.rev
  in
  { insts = [ first.inst; jcc.inst ];
    fused_uops = d.Db.fused_uops;
    issued_uops = d.Db.issued_uops;
    dispatched = load_uops @ [ branch_uop ];
    latency = d.Db.latency;
    complex_decode = d.Db.complex_decode;
    available_simple_dec = d.Db.available_simple_dec;
    eliminated = false;
    zero_idiom = false;
    is_branch = true;
    macro_fused = true;
    reads = dedup (reads_first @ reads_jcc);
    writes = writes_first;
    loads = Inst.loads first.inst }

(* GPR bitmask of the load-address registers of a logical instruction
   (0 when it performs no load): the Precedence component adds the load
   latency on exactly these inputs. *)
let addr_mask (l : logical) =
  if not l.loads then 0
  else
    List.fold_left
      (fun acc inst ->
        match Inst.mem_operand inst with
        | Some m ->
          let acc =
            match m.Operand.base with
            | Some g -> acc lor (1 lsl Register.gpr_index g)
            | None -> acc
          in
          (match m.Operand.index with
           | Some (g, _) -> acc lor (1 lsl Register.gpr_index g)
           | None -> acc)
        | None -> acc)
      0 l.insts

let jcc_check entries =
  (* a jump (or macro-fused jump pair) that crosses or ends on a 32-byte
     boundary prevents the block from being cached in the DSB/LSD *)
  let rec check = function
    | a :: b :: rest when a.fuses_with_next ->
      let s = a.layout.Encode.off in
      let e = b.layout.Encode.off + b.layout.Encode.len in
      touches s e || check rest
    | a :: rest when Inst.is_branch a.inst ->
      let s = a.layout.Encode.off in
      let e = s + a.layout.Encode.len in
      touches s e || check rest
    | _ :: rest -> check rest
    | [] -> false
  and touches s e = s / 32 <> (e - 1) / 32 || e mod 32 = 0 in
  check entries

let build_flat entries logicals =
  let n_log = List.length logicals in
  let l_fused = Array.make n_log 0 in
  let l_complex = Array.make n_log false in
  let l_avail = Array.make n_log 0 in
  let l_branch = Array.make n_log false in
  let l_mfused = Array.make n_log false in
  let l_addr_mask = Array.make n_log 0 in
  let tot_fused = ref 0 in
  let tot_issued = ref 0 in
  let n_masks = ref 0 in
  List.iteri
    (fun i l ->
      l_fused.(i) <- l.fused_uops;
      l_complex.(i) <- l.complex_decode;
      l_avail.(i) <- l.available_simple_dec;
      l_branch.(i) <- l.is_branch;
      l_mfused.(i) <- l.macro_fused;
      l_addr_mask.(i) <- addr_mask l;
      tot_fused := !tot_fused + l.fused_uops;
      tot_issued := !tot_issued + l.issued_uops;
      if not l.eliminated then
        List.iter
          (fun (u : Db.uop) ->
            if not (Port.is_empty u.Db.ports) then incr n_masks)
          l.dispatched)
    logicals;
  let port_masks = Array.make !n_masks Port.empty in
  let k = ref 0 in
  List.iter
    (fun l ->
      if not l.eliminated then
        List.iter
          (fun (u : Db.uop) ->
            if not (Port.is_empty u.Db.ports) then begin
              port_masks.(!k) <- u.Db.ports;
              incr k
            end)
          l.dispatched)
    logicals;
  let n_ent = List.length entries in
  let e_last = Array.make n_ent 0 in
  let e_opc = Array.make n_ent 0 in
  let e_lcp = Array.make n_ent false in
  List.iteri
    (fun i e ->
      let lay = e.layout in
      e_last.(i) <- lay.Encode.off + lay.Encode.len - 1;
      e_opc.(i) <- lay.Encode.nominal_opcode_off;
      e_lcp.(i) <- lay.Encode.lcp)
    entries;
  let ends_branch =
    match List.rev entries with
    | e :: _ -> Inst.is_branch e.inst
    | [] -> false
  in
  let jcc_affected = jcc_check entries in
  { l_fused; l_complex; l_avail; l_branch; l_mfused; l_addr_mask;
    port_masks; e_last; e_opc; e_lcp;
    tot_fused = !tot_fused; tot_issued = !tot_issued;
    ends_branch; jcc_affected }

let build cfg bytes (layouts : Encode.layout list) =
  let raw =
    List.map
      (fun (l : Encode.layout) ->
        { inst = l.Encode.inst;
          layout = l;
          desc = Flat.describe cfg l.Encode.inst;
          fuses_with_next = false;
          fused_into_prev = false })
      layouts
  in
  (* mark macro-fusion pairs *)
  let rec mark = function
    | a :: b :: rest
      when cfg.Config.macro_fusion
           && a.desc.Db.macro_fusible
           && Inst.is_cond_branch b.inst ->
      { a with fuses_with_next = true }
      :: { b with fused_into_prev = true }
      :: mark rest
    | a :: rest -> a :: mark rest
    | [] -> []
  in
  let entries = mark raw in
  let rec logicals = function
    | a :: b :: rest when a.fuses_with_next ->
      logical_of_pair cfg a b :: logicals rest
    | a :: rest -> logical_of_entry a :: logicals rest
    | [] -> []
  in
  let logicals = logicals entries in
  { cfg; entries; logicals; bytes;
    len = String.length bytes;
    flat = build_flat entries logicals }

let of_instructions cfg insts =
  let bytes, layouts = Encode.encode_block insts in
  build cfg bytes layouts

let of_bytes cfg code = build cfg code (Decode.decode_block code)

(* The one place where a failed analysis becomes a typed error: every
   command and the server analyze their input here, so a refusal reads
   the same on the command line and on the wire. *)
let analyze cfg input =
  match
    match input with
    | `Code code -> Ok (of_bytes cfg code)
    | `Asm text -> Result.map (of_instructions cfg) (Asm.parse_block text)
  with
  | Ok b -> Ok b
  | Error m -> Error (Err.v Err.Parse_error m)
  | exception Decode.Decode_error (m, off) ->
    Error (Err.v ~pos:off Err.Encode_error ("cannot decode: " ^ m))
  | exception Encode.Unencodable m ->
    Error (Err.v Err.Encode_error ("cannot encode: " ^ m))
  | exception Db.Unsupported m ->
    Error (Err.v Err.Encode_error ("unsupported instruction: " ^ m))
  | exception Failure m -> Error (Err.v Err.Encode_error m)

let ends_in_branch t = t.flat.ends_branch

let fused_uops t = t.flat.tot_fused

let issued_uops t = t.flat.tot_issued

let jcc_erratum_affected t = t.flat.jcc_affected

(* Reference (pre-flattening) spellings: list walks over the block, kept
   for the differential tests and for timing the pre-PR inner loop in
   the perf bench. *)

let ends_in_branch_ref t =
  match List.rev t.entries with
  | e :: _ -> Inst.is_branch e.inst
  | [] -> false

let fused_uops_ref t =
  List.fold_left (fun acc l -> acc + l.fused_uops) 0 t.logicals

let issued_uops_ref t =
  List.fold_left (fun acc l -> acc + l.issued_uops) 0 t.logicals

let jcc_erratum_affected_ref t = jcc_check t.entries
