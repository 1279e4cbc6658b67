(** The model as it ran before its flat arrays, verbatim: list-based
    component values (the [_ref] component spellings, {!Ports_ref} and
    {!Precedence_ref}) and the list-based combine, converted to a
    prediction once, at the end. *)

open Facile_core

(** Equal to {!Facile_core.Model.predict} on every block
    (property-tested); the perf bench times it as the pre-flattening
    inner loop. *)
val predict :
  ?variant:Model.variant -> ?notion:Model.notion -> Block.t ->
  Model.prediction
