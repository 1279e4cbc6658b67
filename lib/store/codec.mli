(** Binary codec for one persisted prediction record.

    A record is the full memoization unit of the engine —
    [(arch, mode, insts, bytes)] plus the prediction — encoded into a
    compact little-endian byte string.  Floats are carried as
    their IEEE-754 bit patterns, so a decode∘encode round trip is
    bit-identical (enforced by the [store] family of [facile check]).

    The codec is strict on decode: unknown arch/mode/component/
    fe-path codes, truncated fields, and trailing bytes are all
    rejected with a reason, so a frame whose CRC passed but whose
    content is skewed is quarantined rather than half-trusted.  Both
    decoders take a prediction's component lists in any order, but
    reject a value table that misses or repeats one of the seven
    components and a bottleneck list that repeats one, by one rule:
    the same lists give the same error from either decoder. *)

open Facile_uarch
open Facile_core

type record = {
  arch : Config.arch;
  mode : Model.notion;
      (** the mode as requested; [`Auto] is not resolved *)
  insts : int;      (** the block's instruction count *)
  bytes : string;   (** the block's machine code, verbatim *)
  pred : Model.prediction;
}

(** The engine's memoization spelling of a record. *)
val to_memo : record -> Facile_engine.Engine.memo_key * Model.prediction

val of_memo : Facile_engine.Engine.memo_key * Model.prediction -> record

(** Bit-exact prediction equality (floats compared by IEEE bits). *)
val pred_equal : Model.prediction -> Model.prediction -> bool

val encode : record -> string

(** [decode_sub s off len] — the record encoded in the [len] bytes of
    [s] at [off], read in place: inverse of {!encode}; [Error reason]
    on anything malformed, including trailing bytes within the range.
    The record refers to nothing in [s]: its [bytes] are a copy.
    @raise Invalid_argument if the range is out of bounds. *)
val decode_sub : string -> int -> int -> (record, string) result

(** [decode s] — {!decode_sub} of the whole of [s]. *)
val decode : string -> (record, string) result

(** {2 NDJSON exchange format}

    [facile cache export] writes one {!to_json} object per line —
    [arch], [mode] ([loop|unroll|auto]), [insts], [hex] and
    [prediction] — and [facile cache import] reads them back.  The
    JSON float printer emits the shortest decimal that round-trips, so
    the exchange is bit-identical too. *)

val to_json : record -> Facile_obs.Json.t
val of_json : Facile_obs.Json.t -> (record, string) result
