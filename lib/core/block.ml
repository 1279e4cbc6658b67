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

(* Everything the component predictors read, per logical instruction
   ([l_*], and the read/write code segments [r_*]/[w_*]), per raw
   instruction ([e_*]) and per block, filled in one pass over the
   layouts when the block is built.  The [entries]/[logicals] lists
   are views derived from it and [insts] on demand. *)
type flat = {
  l_fused : int array;
  l_complex : bool array;
  l_avail : int array;
  l_branch : bool array;
  l_mfused : bool array;
  l_addr_mask : int array;
  l_latency : int array;
  r_off : int array;
  r_code : int array;
  w_off : int array;
  w_code : int array;
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
  insts : Inst.t array;
  bytes : string;
  len : int;
  flat : flat;
}

(* The macro-fusion rule: an instruction [i] the table marks fusible
   fuses with a directly following conditional branch whose condition
   it may pair with ({!Db.macro_fuses}).  Pairs are taken greedily in
   program order. *)
let fuses cfg (d : Db.t) (i : Inst.t) (next : Inst.t) =
  cfg.Config.macro_fusion && d.Db.macro_fusible && Db.macro_fuses i next

(* GPR bitmask of the load-address registers of [i]'s memory operand:
   the Precedence component adds the load latency on exactly these
   inputs. *)
let addr_bits (i : Inst.t) =
  match Inst.mem_operand i with
  | Some m ->
    (match m.Operand.base with
     | Some g -> 1 lsl Register.gpr_index g
     | None -> 0)
    lor
    (match m.Operand.index with
     | Some (g, _) -> 1 lsl Register.gpr_index g
     | None -> 0)
  | None -> 0

(* A jump (or macro-fused jump pair) spanning bytes [s, e) that crosses
   or ends on a 32-byte boundary keeps the block out of the DSB/LSD. *)
let touches s e = s / 32 <> (e - 1) / 32 || e mod 32 = 0

(* ----- the one-pass fill ------------------------------------------ *)

(* Per-logical scratch: [stride] ints per logical, copied out into
   exact-size arrays once the pairing has fixed the logical count. *)
let stride = 7
let s_fused = 0
let s_avail = 1
let s_addr = 2
let s_latency = 3
let s_flags = 4 (* [f_*] bits *)
let s_r_end = 5
let s_w_end = 6
let f_complex = 1
let f_branch = 2
let f_mfused = 4

(* The growing code and port buffers of one build; [r0]/[w0] start the
   current logical's read and write segments. *)
type scratch = {
  mutable rbuf : int array;
  mutable nr : int;
  mutable r0 : int;
  mutable wbuf : int array;
  mutable nw : int;
  mutable w0 : int;
  mutable pbuf : Port.t array;
  mutable np : int;
}

let grow buf fill =
  let b = Array.make (max 16 (2 * Array.length buf)) fill in
  Array.blit buf 0 b 0 (Array.length buf);
  b

let rec mem (buf : int array) lo hi c = lo < hi && (buf.(lo) = c || mem buf (lo + 1) hi c)

(* Fold callbacks for [Semantics.fold_*_codes]: top-level, so passing
   them allocates no closure.  Each keeps the first occurrence of a
   code within the current logical, as the list views' dedup does. *)
let push_read s c =
  if not (mem s.rbuf s.r0 s.nr c) then begin
    if s.nr = Array.length s.rbuf then s.rbuf <- grow s.rbuf 0;
    s.rbuf.(s.nr) <- c;
    s.nr <- s.nr + 1
  end;
  s

let push_write s c =
  if not (mem s.wbuf s.w0 s.nw c) then begin
    if s.nw = Array.length s.wbuf then s.wbuf <- grow s.wbuf 0;
    s.wbuf.(s.nw) <- c;
    s.nw <- s.nw + 1
  end;
  s

(* The Jcc of a fused pair reads what the first instruction does not
   write. *)
let push_unwritten_read s c = if mem s.wbuf s.w0 s.nw c then s else push_read s c

let push_port s p =
  if not (Port.is_empty p) then begin
    if s.np = Array.length s.pbuf then s.pbuf <- grow s.pbuf Port.empty;
    s.pbuf.(s.np) <- p;
    s.np <- s.np + 1
  end

(* The port sets of dispatched µops ([loads_only]: of load µops). *)
let rec push_ports s ~loads_only = function
  | [] -> ()
  | (u : Db.uop) :: rest ->
    if (not loads_only) || u.Db.kind = Db.Load then push_port s u.Db.ports;
    push_ports s ~loads_only rest

let build cfg bytes (layouts : Encode.layout list) =
  let n_ent = List.length layouts in
  let insts =
    match layouts with
    | [] -> [||]
    | l :: _ -> Array.make n_ent l.Encode.inst
  in
  let e_last = Array.make n_ent 0 in
  let e_opc = Array.make n_ent 0 in
  let e_lcp = Array.make n_ent false in
  Arena.with_ @@ fun a ->
  let lg = Arena.ints a.Arena.blk_log (n_ent * stride) in
  a.Arena.blk_log <- lg;
  let s =
    { rbuf = a.Arena.blk_rcode; nr = 0; r0 = 0;
      wbuf = a.Arena.blk_wcode; nw = 0; w0 = 0;
      pbuf = a.Arena.blk_ports; np = 0 }
  in
  let tot_fused = ref 0 and tot_issued = ref 0 and jcc = ref false in
  let entry k (l : Encode.layout) =
    insts.(k) <- l.Encode.inst;
    e_last.(k) <- l.Encode.off + l.Encode.len - 1;
    e_opc.(k) <- l.Encode.nominal_opcode_off;
    e_lcp.(k) <- l.Encode.lcp
  in
  (* Close logical [li]: its descriptor values (a fused pair takes its
     first instruction's) and its code segments. *)
  let logical li (d : Db.t) ~flags ~addr =
    let o = li * stride in
    lg.(o + s_fused) <- d.Db.fused_uops;
    lg.(o + s_avail) <- d.Db.available_simple_dec;
    lg.(o + s_addr) <- addr;
    lg.(o + s_latency) <- d.Db.latency;
    lg.(o + s_flags) <- flags lor (if d.Db.complex_decode then f_complex else 0);
    lg.(o + s_r_end) <- s.nr;
    lg.(o + s_w_end) <- s.nw;
    s.r0 <- s.nr;
    s.w0 <- s.nw;
    tot_fused := !tot_fused + d.Db.fused_uops;
    tot_issued := !tot_issued + d.Db.issued_uops
  in
  let rec go k li = function
    | [] -> li
    | (l : Encode.layout) :: rest ->
      let i = l.Encode.inst in
      let d = Flat.describe cfg i in
      entry k l;
      (match rest with
       | (j : Encode.layout) :: rest' when fuses cfg d i j.Encode.inst ->
         (* a macro-fused pair: one µop on the branch unit; the first
            instruction's load µop (if any) stays micro-fused *)
         ignore (Flat.describe cfg j.Encode.inst : Db.t);
         entry (k + 1) j;
         ignore (Semantics.fold_read_codes push_read s i : scratch);
         ignore (Semantics.fold_write_codes push_write s i : scratch);
         ignore
           (Semantics.fold_read_codes push_unwritten_read s j.Encode.inst
             : scratch);
         push_ports s ~loads_only:true d.Db.dispatched;
         push_port s cfg.Config.pm.Config.branch;
         let addr =
           if Inst.loads i then addr_bits i lor addr_bits j.Encode.inst else 0
         in
         logical li d ~flags:(f_branch lor f_mfused) ~addr;
         if touches l.Encode.off (j.Encode.off + j.Encode.len) then jcc := true;
         go (k + 2) (li + 1) rest'
       | _ ->
         if not d.Db.zero_idiom then
           ignore (Semantics.fold_read_codes push_read s i : scratch);
         ignore (Semantics.fold_write_codes push_write s i : scratch);
         if not d.Db.eliminated then
           push_ports s ~loads_only:false d.Db.dispatched;
         let branch = Inst.is_branch i in
         logical li d ~flags:(if branch then f_branch else 0)
           ~addr:(if Inst.loads i then addr_bits i else 0);
         if branch && touches l.Encode.off (l.Encode.off + l.Encode.len) then
           jcc := true;
         go (k + 1) (li + 1) rest)
  in
  let n = go 0 0 layouts in
  a.Arena.blk_rcode <- s.rbuf;
  a.Arena.blk_wcode <- s.wbuf;
  a.Arena.blk_ports <- s.pbuf;
  let column f =
    let c = Array.make n 0 in
    for i = 0 to n - 1 do
      c.(i) <- lg.((i * stride) + f)
    done;
    c
  in
  let flag bit =
    let c = Array.make n false in
    for i = 0 to n - 1 do
      c.(i) <- lg.((i * stride) + s_flags) land bit <> 0
    done;
    c
  in
  let offsets f =
    let c = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      c.(i + 1) <- lg.((i * stride) + f)
    done;
    c
  in
  let flat =
    { l_fused = column s_fused;
      l_complex = flag f_complex;
      l_avail = column s_avail;
      l_branch = flag f_branch;
      l_mfused = flag f_mfused;
      l_addr_mask = column s_addr;
      l_latency = column s_latency;
      r_off = offsets s_r_end;
      r_code = Array.sub s.rbuf 0 s.nr;
      w_off = offsets s_w_end;
      w_code = Array.sub s.wbuf 0 s.nw;
      port_masks = Array.sub s.pbuf 0 s.np;
      e_last; e_opc; e_lcp;
      tot_fused = !tot_fused;
      tot_issued = !tot_issued;
      ends_branch = n_ent > 0 && Inst.is_branch insts.(n_ent - 1);
      jcc_affected = !jcc }
  in
  { cfg; insts; bytes; len = String.length bytes; flat }

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

let instruction_count t = Array.length t.insts

let ends_in_branch t = t.flat.ends_branch

let fused_uops t = t.flat.tot_fused

let issued_uops t = t.flat.tot_issued

let jcc_erratum_affected t = t.flat.jcc_affected

(* ----- the list views ---------------------------------------------- *)

(* The raw instructions, their layouts rebuilt from [flat] (blocks are
   laid out back to back from offset 0) and descriptors looked up
   again. *)
let entries t =
  let fl = t.flat in
  let n = Array.length t.insts in
  let rec go k off prev_fuses =
    if k = n then []
    else
      let inst = t.insts.(k) in
      let desc = Flat.describe t.cfg inst in
      let fuses_with_next =
        (not prev_fuses) && k + 1 < n
        && fuses t.cfg desc inst t.insts.(k + 1)
      in
      let layout =
        { Encode.inst; off; len = fl.e_last.(k) - off + 1;
          nominal_opcode_off = fl.e_opc.(k); lcp = fl.e_lcp.(k) }
      in
      { inst; layout; desc; fuses_with_next; fused_into_prev = prev_fuses }
      :: go (k + 1) (fl.e_last.(k) + 1) fuses_with_next
  in
  go 0 0 false

let logical_of_entry ~latency (e : entry) =
  let d = e.desc in
  { insts = [ e.inst ];
    fused_uops = d.Db.fused_uops;
    issued_uops = d.Db.issued_uops;
    dispatched = d.Db.dispatched;
    latency;
    complex_decode = d.Db.complex_decode;
    available_simple_dec = d.Db.available_simple_dec;
    eliminated = d.Db.eliminated;
    zero_idiom = d.Db.zero_idiom;
    is_branch = Inst.is_branch e.inst;
    macro_fused = false;
    reads = (if d.Db.zero_idiom then [] else Semantics.reads e.inst);
    writes = Semantics.writes e.inst;
    loads = Inst.loads e.inst }

let logical_of_pair cfg ~latency (first : entry) (jcc : entry) =
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
    latency;
    complex_decode = d.Db.complex_decode;
    available_simple_dec = d.Db.available_simple_dec;
    eliminated = false;
    zero_idiom = false;
    is_branch = true;
    macro_fused = true;
    reads = dedup (reads_first @ reads_jcc);
    writes = writes_first;
    loads = Inst.loads first.inst }

(* Latencies come from [flat], so a block from {!map_latency} shows its
   latencies in this view too. *)
let logicals t =
  let lat = t.flat.l_latency in
  let rec go li = function
    | a :: b :: rest when a.fuses_with_next ->
      logical_of_pair t.cfg ~latency:lat.(li) a b :: go (li + 1) rest
    | a :: rest -> logical_of_entry ~latency:lat.(li) a :: go (li + 1) rest
    | [] -> []
  in
  go 0 (entries t)

let map_latency f t =
  let l_latency = Array.of_list (List.map f (logicals t)) in
  { t with flat = { t.flat with l_latency } }

(* Reference (pre-flattening) spellings: list walks over the views,
   kept for the differential tests and the perf bench's reference
   pipeline. *)

let ends_in_branch_ref t =
  match List.rev (entries t) with
  | e :: _ -> Inst.is_branch e.inst
  | [] -> false

let fused_uops_ref t =
  List.fold_left (fun acc l -> acc + l.fused_uops) 0 (logicals t)

let issued_uops_ref t =
  List.fold_left (fun acc l -> acc + l.issued_uops) 0 (logicals t)

let jcc_erratum_affected_ref t =
  let rec check = function
    | a :: b :: rest when a.fuses_with_next ->
      let s = a.layout.Encode.off in
      touches s (b.layout.Encode.off + b.layout.Encode.len) || check rest
    | a :: rest when Inst.is_branch a.inst ->
      let s = a.layout.Encode.off in
      touches s (s + a.layout.Encode.len) || check rest
    | _ :: rest -> check rest
    | [] -> false
  in
  check (entries t)
