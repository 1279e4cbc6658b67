open Facile_uarch

type component = Predec | Dec | DSB | LSD | Issue | Ports | Precedence

let all_components = [ Predec; Dec; LSD; DSB; Issue; Ports; Precedence ]

(* 1: Howard's policy cycles rooted at their smallest node, which moved
   the predictions that used to fall back to Lawler.
   2: an instruction with a memory destination no longer macro-fuses
   with a following Jcc (the fused pair dropped its store µops).
   3: macro-fusion heeds the Jcc's condition (CMP/ADD/SUB do not fuse
   with JO/JNO/JS/JNS/JP/JNP, INC/DEC only with JE/JNE/JL/JGE/JLE/JG). *)
let revision = 3

let component_name = function
  | Predec -> "Predec"
  | Dec -> "Dec"
  | DSB -> "DSB"
  | LSD -> "LSD"
  | Issue -> "Issue"
  | Ports -> "Ports"
  | Precedence -> "Precedence"

type variant = {
  simple_predec : bool;
  simple_dec : bool;
  without : component list;
  only : component list option;
  idealized : component list;
}

let default =
  { simple_predec = false; simple_dec = false; without = [];
    only = None; idealized = [] }

type fe_path = FE_decoders | FE_lsd | FE_dsb | FE_none

(* Fifteen words: the record, the box of [cycles] and the 7-slot float
   array, indexed in [all_components] order.  The bottleneck set is an
   int mask over the same indices and [fe_path] an immediate. *)
type prediction = {
  cycles : float;
  bounds : float array;
  bottleneck_mask : int;
  fe_path : fe_path;
}

(* The components as bit positions: the hot path represents component
   sets as int masks, and a prediction keeps its bounds in a float
   array, both indexed in [all_components] order. *)
let component_index = function
  | Predec -> 0
  | Dec -> 1
  | LSD -> 2
  | DSB -> 3
  | Issue -> 4
  | Ports -> 5
  | Precedence -> 6

let component_bit c = 1 lsl component_index c

let mask_of = List.fold_left (fun m c -> m lor component_bit c) 0

let value p c = p.bounds.(component_index c)
let is_bottleneck p c = p.bottleneck_mask land component_bit c <> 0
let bottlenecks p = List.filter (is_bottleneck p) all_components

let make ~cycles ~value ~bottlenecks ~fe_path =
  { cycles;
    bounds = Array.of_list (List.map value all_components);
    bottleneck_mask = mask_of bottlenecks;
    fe_path }

(* The seven component bounds for the given execution mode, in a fresh
   array that becomes the prediction's; the arena is threaded through
   every component that uses scratch buffers. *)
let fill_bounds (a : Arena.t) variant mode b =
  let bounds = Array.make 7 0.0 in
  bounds.(0) <-
    (if variant.simple_predec then Predec.simple b
     else Predec.throughput_in a ~mode b);
  bounds.(1) <-
    (if variant.simple_dec then Dec.simple b else Dec.throughput_in a b);
  bounds.(2) <- Lsd.throughput b;
  bounds.(3) <- Dsb.throughput b;
  bounds.(4) <- Issue.throughput b;
  bounds.(5) <- Ports.throughput_in a b;
  bounds.(6) <- Precedence.throughput_in a b;
  bounds

(* Mask-based combine: same max / bottleneck / reporting semantics as
   the reference library's list pipeline, without its per-candidate
   [List.map]s.  It idealizes [bounds] in place and returns them in the
   prediction, so the record and the box of [cycles] are its only
   allocations. *)
let combine_masks variant (bounds : float array) candidates fe_path =
  let considered =
    match variant.only with
    | Some comps -> mask_of comps
    | None -> candidates land lnot (mask_of variant.without)
  in
  (* report bounds after idealization too: [bottleneck_mask] and
     [cycles] are computed on idealized bounds, so reporting the raw
     ones would print a component table in which no entry equals
     [cycles] *)
  let ideal = mask_of variant.idealized in
  for i = 0 to 6 do
    if ideal land (1 lsl i) <> 0 then bounds.(i) <- 0.0
  done;
  let cycles = ref 0.0 in
  for i = 0 to 6 do
    if considered land (1 lsl i) <> 0 then
      cycles := Float.max !cycles bounds.(i)
  done;
  let cycles = !cycles in
  let bottleneck_mask = ref 0 in
  for i = 0 to 6 do
    if
      considered land (1 lsl i) <> 0
      && cycles > 0.0
      && abs_float (bounds.(i) -. cycles) < 1e-9
    then bottleneck_mask := !bottleneck_mask lor (1 lsl i)
  done;
  { cycles; bounds; bottleneck_mask = !bottleneck_mask; fe_path }

(* Throughput notion: TP_U (unrolled), TP_L (loop), or pick from the
   block's final instruction, the paper's §3.1 convention. *)
type notion = [ `Unrolled | `Loop | `Auto ]

let notion_name = function
  | `Loop -> "loop"
  | `Unrolled -> "unroll"
  | `Auto -> "auto"

let notion_of_string s =
  let all = [ `Loop; `Unrolled; `Auto ] in
  match List.find_opt (fun n -> notion_name n = s) all with
  | Some n -> Ok n
  | None ->
    Error
      (Facile_x86.Err.v Facile_x86.Err.Unknown_mode
         (Printf.sprintf "unknown mode: %s (expected %s)" s
            (String.concat "|" (List.map notion_name all))))

let resolve notion b =
  match notion with
  | (`Unrolled | `Loop) as n -> n
  | `Auto -> if Block.ends_in_branch b then `Loop else `Unrolled

let decoders = mask_of [ Predec; Dec ]
let be_candidates = mask_of [ Issue; Ports; Precedence ]

(* The components the max ranges over: the front end the prediction
   reads ([FE_none] is TP_U's predecoder and decoders), then the back
   end. *)
let candidates_mask fe_path =
  be_candidates
  lor
  match fe_path with
  | FE_none | FE_decoders -> decoders
  | FE_lsd -> component_bit LSD
  | FE_dsb -> component_bit DSB

let unrolled a variant b =
  combine_masks variant (fill_bounds a variant `Unrolled b)
    (candidates_mask FE_none) FE_none

let looped a variant b =
  let bounds = fill_bounds a variant `Loop b in
  let fe_path =
    if b.Block.cfg.Config.jcc_erratum && Block.jcc_erratum_affected b then
      FE_decoders
    else if Lsd.applicable b then FE_lsd
    else FE_dsb
  in
  combine_masks variant bounds (candidates_mask fe_path) fe_path

(* The single prediction entry point; every surface (CLI, engine,
   bench, serve) goes through here.  One arena serves the whole
   prediction. *)
let predict ?(variant = default) ?(notion = `Auto) b =
  Arena.with_ @@ fun a ->
  match resolve notion b with
  | `Unrolled -> unrolled a variant b
  | `Loop -> looped a variant b

(* ------------------------------------------------------------------ *)

let bottleneck ?(variant = default) b =
  match bottlenecks (predict ~variant b) with
  | c :: _ -> c
  | [] -> Issue (* empty block: arbitrary but stable *)

let candidates p =
  let m = candidates_mask p.fe_path in
  List.filter (fun c -> m land component_bit c <> 0) all_components

let speedup_idealizing ~notion b c =
  let base = (predict ~notion b).cycles in
  let ideal =
    (predict ~variant:{ default with idealized = [ c ] } ~notion b).cycles
  in
  if ideal <= 0.0 then 1.0 else base /. ideal

(* ----- serialization ----- *)

let fe_path_name = function
  | FE_decoders -> "decoders"
  | FE_lsd -> "lsd"
  | FE_dsb -> "dsb"
  | FE_none -> "none"

(* Every float a prediction serializes must be finite: [Json.float_repr]
   would otherwise emit "null" and clients would see a silently missing
   value. A non-finite bound here means a model invariant broke, so
   fail loudly with the typed error instead. *)
let finite name v =
  if Float.is_finite v then v
  else
    raise
      (Facile_x86.Err.Error
         (Facile_x86.Err.v Facile_x86.Err.Internal
            (Printf.sprintf "non-finite %s in prediction: %h" name v)))

(* The one JSON encoding of a prediction.  `facile predict --json`,
   `facile batch --json`, and `facile serve` all call this, so the
   three surfaces cannot drift in field names. *)
let prediction_to_json (p : prediction) : Facile_obs.Json.t =
  let open Facile_obs in
  Json.Obj
    [ "cycles", Json.Float (finite "cycles" p.cycles);
      "bottlenecks",
      Json.Arr
        (List.fold_right
           (fun c names ->
             if is_bottleneck p c then Json.Str (component_name c) :: names
             else names)
           all_components []);
      "values",
      Json.Obj
        (List.map
           (fun c ->
             let name = component_name c in
             (name, Json.Float (finite name (value p c))))
           all_components);
      "fe_path", Json.Str (fe_path_name p.fe_path) ]
