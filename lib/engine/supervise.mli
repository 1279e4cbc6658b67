(** The request boundary.

    [run t f] runs [f] on the calling thread and returns [Ok v], or
    [Error e] for any exception [e] that escapes [f] — a bug or an
    injected fault ({!Fault.Injected}).  The serving core runs each
    request's decode and prediction inside it and answers an [Error]
    with a typed ["internal"] error.  Nothing is respawned, because
    nothing died: under OCaml 5 an escaped exception leaves its thread
    and domain usable, and every prediction owns its scratch
    ({!Facile_core.Arena.with_}), so a request that raised halfway
    cannot corrupt the next one.

    [t] holds no state: {!create} and {!shutdown} do nothing, and are
    kept so that callers of the old executor API still compile. *)

type t

val create : unit -> t

val run : t -> (unit -> 'a) -> ('a, exn) result

val shutdown : t -> unit
