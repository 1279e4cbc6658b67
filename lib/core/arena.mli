(** Per-computation scratch buffers for the prediction hot path and
    for block analysis.

    Each component predictor owns a few named growable buffers here
    instead of allocating working arrays per call.  An arena belongs
    to one running computation at a time ({!with_}), so predictions on
    different domains, or on different system threads of one domain,
    never share scratch.  Buffers only grow and their contents are
    garbage on entry; a caller must not hold one across a call into
    another component that uses the same field. *)

type t = {
  mutable predec_last : int array;
  mutable predec_opc : int array;
  mutable predec_lcp : int array;
  mutable dec_complex : int array;
  mutable dec_first : int array;
  mutable ports_dedup : Facile_uarch.Port.t array;
  mutable ports_pairs : Facile_uarch.Port.t array;
  mutable ports_cnt : int array;
  mutable prec_codes : int array;
  mutable prec_paths : int array;
      (** {!Precedence}'s per-code tables, and its matrix, Karp's
          table and path vectors *)
  mutable blk_log : int array;
  mutable blk_rcode : int array;
  mutable blk_wcode : int array;
  mutable blk_ports : Facile_uarch.Port.t array;
      (** {!Block}'s fill: per-logical values, codes and port sets
          before the copy to exact size *)
}

(** [with_ f] runs [f] with an arena no other computation holds — a
    free one, or a fresh one when none is free — and frees it again
    when [f] returns or raises.  Safe from any domain and any thread;
    [f] must not keep the arena after it returns. *)
val with_ : (t -> 'a) -> 'a

(** [ints buf n] ([ports buf n]) is [buf] if it already
    holds [n] elements, else a fresh larger buffer; the caller stores
    the result back into the arena field it came from. Contents are
    unspecified. *)
val ints : int array -> int -> int array

val ports : Facile_uarch.Port.t array -> int -> Facile_uarch.Port.t array
