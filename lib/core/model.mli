(** The Facile throughput model: combination of the component bounds
    (paper §4.1, §4.2), bottleneck identification, component ablations
    (Table 3) and counterfactual idealization (Table 4). *)

type component = Predec | Dec | DSB | LSD | Issue | Ports | Precedence

val all_components : component list
val component_name : component -> string

(** The model's revision.  Bump it whenever a prediction can change, on
    any µarch, in any mode, together with the pinned digest of the
    [pin.predictions] test.  The persistent store folds it into its
    fingerprint, so a store written by an older model is refused, not
    served. *)
val revision : int

(** Ablation/variant switches. [without] removes components from the
    max; [only] predicts from the listed components alone (raw values,
    ignoring the front-end path selection); [idealized] treats
    components as infinitely fast (Table 4); [simple_predec] /
    [simple_dec] substitute the simple baselines of §4.3/§4.4. *)
type variant = {
  simple_predec : bool;
  simple_dec : bool;
  without : component list;
  only : component list option;
  idealized : component list;
}

val default : variant

(** Which front-end source serves the loop in steady state (TP_L). *)
type fe_path = FE_decoders | FE_lsd | FE_dsb | FE_none

(** A prediction, as {!predict} returns it and the engine's memo cache
    keeps it: 15 words (the record, the box of [cycles] and a 7-slot
    float array).  Read the bounds and the bottlenecks through {!value},
    {!is_bottleneck} and {!bottlenecks}; build one with {!make} or
    {!of_bounds}. *)
type prediction = private {
  cycles : float;  (** predicted inverse throughput (cycles/iteration) *)
  bounds : float array;
      (** every component's bound, in {!all_components} order (before
          ablation filtering, but after [idealized] zeroing, so the
          table is consistent with [cycles] and the bottlenecks).
          Shared by every holder of the prediction: never mutated. *)
  bottleneck_mask : int;
      (** bit [i] set when the [i]th component of {!all_components} is
          a bottleneck *)
  fe_path : fe_path;
}

(** [component_index c] — [c]'s position in {!all_components}: its slot
    in a prediction's [bounds] and its bit in [bottleneck_mask]. *)
val component_index : component -> int

(** [value p c] — [c]'s bound in [p]. *)
val value : prediction -> component -> float

(** [is_bottleneck p c] — whether [c]'s bound equals [p.cycles] among
    the components the prediction considered. *)
val is_bottleneck : prediction -> component -> bool

(** The bottleneck components, ordered front-end first (Predec > Dec >
    LSD > DSB > Issue > Ports > Precedence, {!all_components} order). *)
val bottlenecks : prediction -> component list

(** [make ~cycles ~value ~bottlenecks ~fe_path] — the prediction whose
    bound for [c] is [value c]; a component listed in [bottlenecks]
    twice counts once.  For code that holds a prediction in parts: the
    reference pipeline, the store drills of [facile check] and tests. *)
val make :
  cycles:float ->
  value:(component -> float) ->
  bottlenecks:component list ->
  fe_path:fe_path ->
  prediction

(** [of_bounds ~cycles ~bounds ~bottleneck_mask ~fe_path] — the
    prediction of these fields as given, for a reader that fills them
    in place (the store codec): [bounds] holds the seven bounds in
    {!all_components} order and becomes the prediction's, so the caller
    must not write it again.
    @raise Invalid_argument unless [bounds] has seven slots and
    [bottleneck_mask] sets no bit above the seventh. *)
val of_bounds :
  cycles:float ->
  bounds:float array ->
  bottleneck_mask:int ->
  fe_path:fe_path ->
  prediction

(** Throughput notion: [`Unrolled] — TP_U, Equation 1; [`Loop] — the
    block executed as a loop (TP_L, Equations 2 and 3, including the
    JCC-erratum and LSD conditions); [`Auto] dispatches on
    {!Block.ends_in_branch} (the paper's §3.1 convention).  The same
    tags key the engine's memo cache and the prediction store, where
    [`Auto] is a key of its own, not the notion it resolves to. *)
type notion = [ `Unrolled | `Loop | `Auto ]

(** [notion_of_string s] — the one parser of a requested notion, as the
    CLI's [--mode] and the wire's ["mode"] spell it: ["unroll"],
    ["loop"] or ["auto"]; anything else is an [Unknown_mode] error. *)
val notion_of_string : string -> (notion, Facile_x86.Err.t) result

(** The spelling {!notion_of_string} parses. *)
val notion_name : [< notion ] -> string

(** [resolve n b] — the notion [b] is predicted under: [`Auto] becomes
    [`Loop] if [b] ends in a branch and [`Unrolled] otherwise. *)
val resolve : notion -> Block.t -> [ `Unrolled | `Loop ]

(** [predict ?variant ?notion b] — the single prediction entry point;
    [notion] defaults to [`Auto]. *)
val predict : ?variant:variant -> ?notion:notion -> Block.t -> prediction

(** [bottleneck b] — the single bottleneck under the paper's
    front-end-first tie-breaking (used for the Figure 6 Sankey). *)
val bottleneck : ?variant:variant -> Block.t -> component

(** [candidates p] — the components [p]'s cycles are the maximum of,
    in {!all_components} order: under TP_U Predec and Dec, under TP_L
    the front-end path's (Predec and Dec under the JCC erratum, else
    LSD or DSB); then Issue, Ports and Precedence. *)
val candidates : prediction -> component list

(** [speedup_idealizing ~notion b c] — ratio
    [cycles / cycles-with-c-idealized] of [b] predicted under [notion]
    (Table 4 uses TP_U); 1.0 when [c] is not a bottleneck, and when
    [c] is not among the {!candidates} of that prediction. *)
val speedup_idealizing : notion:notion -> Block.t -> component -> float

(** Wire name of a front-end path ("decoders", "lsd", "dsb", "none"). *)
val fe_path_name : fe_path -> string

(** The one JSON encoding of a prediction, shared by
    [facile predict --json], [facile batch --json], and
    [facile serve] so the three surfaces cannot drift.
    @raise Facile_x86.Err.Error with kind [Internal] if any float in
    the prediction is non-finite (a broken model invariant; emitting it
    would produce a silently null JSON value). *)
val prediction_to_json : prediction -> Facile_obs.Json.t
