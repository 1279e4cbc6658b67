(* The request boundary: see supervise.mli. *)

type t = unit

let create () = ()

let run () f = match f () with v -> Ok v | exception e -> Error e

let shutdown () = ()
