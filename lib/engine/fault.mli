(** Deterministic fault injection.

    The request pipeline calls {!point} at its named stages ("decode",
    "predict", "respond").  When a fault spec is configured (env var
    [FACILE_FAULT] or {!configure}) the point may raise {!Injected}.
    Unconfigured, {!point} costs one atomic load.

    Spec grammar: [point:rate:seed[:limit]], comma-separated.  The
    PRNG stream is seeded, so a given spec injects at the same hook
    hits in every run. *)

exception Injected of string

(** Replace the active fault rules with [spec].
    @raise Invalid_argument on a malformed spec. *)
val configure : string -> unit

(** [configure] from [FACILE_FAULT] if set and non-empty. *)
val configure_from_env : unit -> unit

(** Remove all fault rules. *)
val clear : unit -> unit

(** Consult the injection table for point [p]. *)
val point : string -> unit

(** [draw p] — the non-raising spelling of {!point} for fault points
    that corrupt data instead of crashing: when the rule for [p]
    fires, the injection is counted and [Some payload] is returned,
    where [payload] is a non-negative integer from the rule's seeded
    PRNG stream (the caller derives a deterministic bit position,
    write length, etc. from it).  Returns [None] when no rule is
    configured, the rule does not fire, or its limit is spent.  The
    store I/O points ("store.short_write", "store.enospc",
    "store.read") are consulted this way. *)
val draw : string -> int option

(** [(point, (injected, hits))] per configured rule, sorted. *)
val snapshot : unit -> (string * (int * int)) list
